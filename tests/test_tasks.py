"""Dataset generation, splits, domain sequences, and JSONL ingestion."""

import json

import pytest

from mole.tasks import (
    TASK_KINDS,
    Example,
    decode,
    domain_alphabet,
    encode,
    generate_domain_sequence,
    generate_task,
    load_jsonl,
    save_jsonl,
)


class TestGenerateTask:
    @pytest.mark.parametrize("kind", TASK_KINDS)
    def test_deterministic(self, kind):
        a = generate_task(kind, 40, seed=3)
        b = generate_task(kind, 40, seed=3)
        assert a.train == b.train and a.eval == b.eval
        c = generate_task(kind, 40, seed=4)
        assert c.train != a.train

    @pytest.mark.parametrize("kind", TASK_KINDS)
    def test_splits_disjoint(self, kind):
        task = generate_task(kind, 40, seed=5)
        assert len(task.train) + len(task.eval) == 40
        assert not set(task.train) & set(task.eval)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown task kind"):
            generate_task("sorting", 10, seed=0)

    def test_copy_rule(self):
        task = generate_task("copy", 30, seed=7)
        for ex in task.all_examples:
            text = decode(ex.prompt)
            assert text.endswith("=")
            assert ex.label == ord(text[0])

    def test_modular_add_exhaustive_oracle(self):
        # the full 49-pair space, every label re-derived as (x + y) mod 7
        task = generate_task("modular_add", 49, seed=9)
        seen = set()
        for ex in task.all_examples:
            text = decode(ex.prompt)
            x, y = int(text[0]), int(text[2])
            assert text == f"{x}+{y}="
            assert ex.label == ord(str((x + y) % 7))
            seen.add((x, y))
        assert seen == {(x, y) for x in range(7) for y in range(7)}

    def test_parity_exhaustive_oracle(self):
        # all 256 bit strings, labels re-derived by XOR fold
        task = generate_task("parity", 256, seed=11)
        assert len(task.all_examples) == 256
        prompts = set()
        for ex in task.all_examples:
            bits = decode(ex.prompt)[:-1]
            fold = 0
            for b in bits:
                fold ^= int(b)
            assert ex.label == ord(str(fold))
            prompts.add(bits)
        assert len(prompts) == 256

    def test_keyed_lookup_rule(self):
        task = generate_task("keyed_lookup", 50, seed=13)
        for ex in task.all_examples:
            text = decode(ex.prompt)
            body, query = text[:-1].split("?")
            table = {body[i]: body[i + 1] for i in range(0, len(body), 2)}
            assert ex.label == ord(table[query])

    def test_size_cap_on_finite_spaces(self):
        assert len(generate_task("modular_add", 500, seed=1).all_examples) == 49


class TestDomainSequence:
    def test_disjoint_alphabets(self):
        domains = generate_domain_sequence(5, 50, seed=3)
        assert len(domains) == 5
        alphabets = [set(domain_alphabet(d)) for d in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                assert not alphabets[i] & alphabets[j]

    def test_examples_use_own_alphabet(self):
        domains = generate_domain_sequence(3, 30, seed=4)
        for d, dom in enumerate(domains):
            symbols = set(domain_alphabet(d)) | {"="}
            for ex in dom.all_examples:
                assert set(decode(ex.prompt)) <= symbols
                assert chr(ex.label) in domain_alphabet(d)

    def test_deterministic(self):
        a = generate_domain_sequence(3, 40, seed=6)
        b = generate_domain_sequence(3, 40, seed=6)
        assert all(x.train == y.train and x.eval == y.eval for x, y in zip(a, b))

    def test_minimum_two_domains(self):
        with pytest.raises(ValueError, match="at least 2"):
            generate_domain_sequence(1, 10, seed=0)


class TestJsonl:
    def test_two_well_formed_lines(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"prompt": "ab=", "label": "a"}\n'
                        '{"prompt": "cd=", "label": "c", "choices": ["a", "c"]}\n')
        examples = load_jsonl(path)
        assert len(examples) == 2
        assert examples[0].prompt == encode("ab=")
        assert examples[1].choices == encode("ac")

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"prompt": "a=", "label": "a"}\n'
                        '{"prompt": "b=", "label": "b"}\n'
                        '{"prompt": oops}\n')
        with pytest.raises(ValueError, match="line 3"):
            load_jsonl(path)

    def test_missing_field_names_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"prompt": "a="}\n')
        with pytest.raises(ValueError, match="line 1.*label"):
            load_jsonl(path)

    def test_empty_prompt_names_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"prompt": "ab=", "label": "a"}\n'
                        '{"prompt": "", "label": "b"}\n')
        with pytest.raises(ValueError, match="line 2.*prompt"):
            load_jsonl(path)

    @pytest.mark.parametrize("line, match", [
        ('{"prompt": 5, "label": "a"}', "prompt must be a string"),
        ('{"prompt": ["a", "b"], "label": "a"}', "prompt must be a string"),
        ('{"prompt": "ab=", "label": "a", "choices": 5}', "choices must be a list or string"),
        ('{"prompt": "ab=", "label": "a", "choices": {"a": 1}}', "choices must be a list"),
        ('{"prompt": "ab=", "label": "\\u20ac"}', "text .* outside the byte vocabulary"),
        ('{"prompt": "ab=", "label": "a", "choices": ["a", "\\u0100"]}',
         "text .* outside the byte vocabulary"),
    ], ids=["int-prompt", "list-prompt", "int-choices", "object-choices", "label-outside-vocab",
            "choice-outside-vocab"])
    def test_wrong_field_types_name_line_number(self, tmp_path, line, match):
        path = tmp_path / "data.jsonl"
        path.write_text('{"prompt": "ab=", "label": "a"}\n' + line + "\n")
        with pytest.raises(ValueError, match="line 2: " + match):
            load_jsonl(path)

    def test_choices_may_be_a_string(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"prompt": "ab=", "label": "a", "choices": "ab"}\n')
        assert load_jsonl(path)[0].choices == encode("ab")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_jsonl(path)

    def test_round_trip(self, tmp_path):
        original = generate_task("keyed_lookup", 20, seed=17).all_examples
        path = tmp_path / "round.jsonl"
        save_jsonl(original, path)
        assert load_jsonl(path) == original

    def test_failed_save_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_jsonl(generate_task("copy", 10, seed=18).all_examples, path)
        earlier = path.read_bytes()
        # the last example's label is no character, so the write fails part-way
        examples = generate_task("keyed_lookup", 20, seed=17).all_examples
        with pytest.raises(ValueError):
            save_jsonl(examples + [Example(prompt=encode("x="), label=-1)], path)
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]

    def test_label_in_choices_enforced(self):
        with pytest.raises(ValueError, match="choices"):
            Example(prompt=encode("x="), label=ord("z"), choices=encode("ab"))
