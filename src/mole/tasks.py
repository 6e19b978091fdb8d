"""Synthetic desk-scale datasets and the continual-learning domain sequence.

Tokenization is character-level over a fixed 256-symbol vocabulary (raw byte
ordinals), and every answer is a single token, so evaluation is an argmax over
the example's answer choices. Generation is fully determined by
(kind, size, seed); train and eval splits never share an example.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .checkpoint import atomic_write
from .tensor import Rng

VOCAB_SIZE = 256

TASK_KINDS = ("copy", "modular_add", "parity", "keyed_lookup")

COPY_ALPHABET = "abcdefghijklmnop"
COPY_LENGTH = 6
MODULAR_BASE = 7
PARITY_LENGTH = 8
LOOKUP_KEYS = "abcdefgh"
LOOKUP_VALUES = "01234567"
LOOKUP_PAIRS = 3

# how many distinct examples each task kind has: `generate_task` gives at most that many
DISTINCT_EXAMPLES = {
    "copy": len(COPY_ALPHABET) ** COPY_LENGTH, "modular_add": MODULAR_BASE ** 2,
    "parity": 2 ** PARITY_LENGTH, "keyed_lookup": LOOKUP_PAIRS * len(LOOKUP_VALUES) ** LOOKUP_PAIRS
    * math.perm(len(LOOKUP_KEYS), LOOKUP_PAIRS)}

DOMAIN_ALPHABET_SIZE = 8
DOMAIN_PROMPT_LENGTH = 6
_DOMAIN_ALPHABET_START = ord("A")


def encode(text: str) -> tuple[int, ...]:
    ids = tuple(ord(ch) for ch in text)
    if any(i >= VOCAB_SIZE for i in ids):
        raise ValueError(f"text {text!r} contains symbols outside the byte vocabulary")
    return ids


def decode(ids) -> str:
    return "".join(chr(int(i)) for i in ids)


@dataclass(frozen=True)
class Example:
    """One prompt with a single-token answer and optional answer choices."""

    prompt: tuple[int, ...]
    label: int
    choices: tuple[int, ...] | None = None

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("prompt must not be empty")
        if self.choices is not None and self.label not in self.choices:
            raise ValueError(f"label {self.label} not among choices {self.choices}")


@dataclass
class TaskData:
    """A named dataset with disjoint train and eval splits, or with one list
    as both (a JSONL file), which `all_examples` holds once."""

    name: str
    train: list[Example]
    eval: list[Example]

    @property
    def all_examples(self) -> list[Example]:
        return self.train if self.eval is self.train else self.train + self.eval


def check_vocab(examples, vocab_size: int) -> None:
    """Reject examples whose prompt tokens, label or choices reach `vocab_size`."""
    top = max(max(*ex.prompt, ex.label, *(ex.choices or ())) for ex in examples)
    if top >= vocab_size:
        raise ValueError(f"the dataset holds token id {top}, outside vocab_size {vocab_size}")


def _split(examples: list[Example], name: str) -> TaskData:
    if len(examples) < 2:
        raise ValueError(f"need at least 2 examples to split, got {len(examples)}")
    n_eval = max(1, len(examples) // 5)
    return TaskData(name=name, train=examples[:-n_eval], eval=examples[-n_eval:])


def _text_example(prompt: str, label: str, choices: str) -> Example:
    return Example(prompt=encode(prompt), label=ord(label), choices=encode(choices))


def _echo_first(draw: Rng, alphabet: str, length: int, size: int) -> list[Example]:
    # `size` distinct random strings, each labeled by its first symbol: "qwerty=" -> "q"
    seen = set()
    out = []
    while len(out) < size:
        text = "".join(alphabet[i] for i in draw.integers(0, len(alphabet), size=length))
        if text not in seen:
            seen.add(text)
            out.append(_text_example(text + "=", text[0], alphabet))
    return out


def _gen_copy(size: int, rng: Rng) -> list[Example]:
    return _echo_first(rng.child("strings"), COPY_ALPHABET, COPY_LENGTH, size)


def _gen_modular_add(size: int, rng: Rng) -> list[Example]:
    # "x+y=" -> (x+y) mod 7, over every pair below the modulus.
    digits = "".join(chr(ord("0") + i) for i in range(MODULAR_BASE))
    pairs = [(x, y) for x in range(MODULAR_BASE) for y in range(MODULAR_BASE)]
    order = rng.child("order").permutation(len(pairs))
    out = []
    for idx in order[:size]:
        x, y = pairs[idx]
        out.append(_text_example(f"{digits[x]}+{digits[y]}=",
                                 digits[(x + y) % MODULAR_BASE], digits))
    return out


def _gen_parity(size: int, rng: Rng) -> list[Example]:
    # 8-bit strings labeled by their XOR fold.
    universe = 1 << PARITY_LENGTH
    order = rng.child("order").permutation(universe)
    out = []
    for value in order[:size]:
        bits = format(value, f"0{PARITY_LENGTH}b")
        parity = str(bits.count("1") % 2)
        out.append(_text_example(bits + "=", parity, "01"))
    return out


def _gen_keyed_lookup(size: int, rng: Rng) -> list[Example]:
    # Associative recall: "a3 c1 f0 ?c=" -> "1" (3 distinct key/value pairs).
    seen = set()
    out = []
    draw = rng.child("items")
    while len(out) < size:
        key_ids = draw.permutation(len(LOOKUP_KEYS))[:LOOKUP_PAIRS]
        values = draw.integers(0, len(LOOKUP_VALUES), size=LOOKUP_PAIRS)
        query = int(draw.integers(0, LOOKUP_PAIRS))
        body = "".join(LOOKUP_KEYS[k] + LOOKUP_VALUES[v] for k, v in zip(key_ids, values))
        prompt = body + "?" + LOOKUP_KEYS[key_ids[query]] + "="
        if prompt in seen:
            continue
        seen.add(prompt)
        out.append(_text_example(prompt, LOOKUP_VALUES[values[query]], LOOKUP_VALUES))
    return out


_GENERATORS = {
    "copy": _gen_copy,
    "modular_add": _gen_modular_add,
    "parity": _gen_parity,
    "keyed_lookup": _gen_keyed_lookup,
}


def generate_task(kind: str, size: int, seed: int) -> TaskData:
    """min(size, DISTINCT_EXAMPLES[kind]) examples of one kind, split 80/20 without overlap."""
    if kind not in _GENERATORS:
        raise ValueError(f"unknown task kind {kind!r}; expected one of {TASK_KINDS}")
    if size < 2:
        raise ValueError(f"size must be at least 2, got {size}")
    examples = _GENERATORS[kind](min(size, DISTINCT_EXAMPLES[kind]), Rng(seed).child("task", kind))
    return _split(examples, name=kind)


def domain_alphabet(index: int) -> str:
    start = _DOMAIN_ALPHABET_START + index * DOMAIN_ALPHABET_SIZE
    if start + DOMAIN_ALPHABET_SIZE > VOCAB_SIZE:
        raise ValueError(f"domain index {index} exhausts the symbol space")
    return "".join(chr(start + i) for i in range(DOMAIN_ALPHABET_SIZE))


def generate_domain(index: int, size: int, seed: int, name: str | None = None) -> TaskData:
    """One continual-learning domain: echo-first-symbol over its own alphabet.

    Domains use pairwise-disjoint symbol ranges, so skill on one domain says
    nothing about another and forgetting is measurable; the rule itself
    generalizes, so held-out accuracy tracks retained skill rather than
    memorization.
    """
    examples = _echo_first(Rng(seed).child("domain", index), domain_alphabet(index),
                           DOMAIN_PROMPT_LENGTH, size)
    return _split(examples, name or f"domain{index}")


def generate_domain_sequence(num_domains: int, size: int, seed: int) -> list[TaskData]:
    """An ordered list of disjoint domains for sequential fine-tuning."""
    if num_domains < 2:
        raise ValueError(f"need at least 2 domains, got {num_domains}")
    return [generate_domain(d, size, seed) for d in range(num_domains)]


# -- file ingestion ------------------------------------------------------------


def load_jsonl(path) -> list[Example]:
    """Parse a JSONL dataset; every error names its 1-based line number."""
    examples = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"line {lineno}: invalid JSON ({err.msg})") from err
            if not isinstance(record, dict):
                raise ValueError(f"line {lineno}: expected a JSON object")
            try:
                prompt = record["prompt"]
                label = record["label"]
            except KeyError as err:
                raise ValueError(f"line {lineno}: missing field {err.args[0]!r}") from err
            if not isinstance(prompt, str):
                raise ValueError(f"line {lineno}: prompt must be a string")
            if not isinstance(label, str) or len(label) != 1:
                raise ValueError(f"line {lineno}: label must be a single character")
            choices = record.get("choices")
            if choices is not None and (not isinstance(choices, (list, str)) or not all(
                    isinstance(c, str) and len(c) == 1 for c in choices)):
                raise ValueError(f"line {lineno}: choices must be a list or string "
                                 "of single characters")
            try:
                examples.append(Example(
                    prompt=encode(prompt), label=encode(label)[0],
                    choices=None if choices is None else encode("".join(choices))))
            except ValueError as err:
                raise ValueError(f"line {lineno}: {err}") from err
    if not examples:
        raise ValueError(f"{path}: empty dataset")
    return examples


def save_jsonl(examples, path) -> None:
    with atomic_write(path, encoding="utf-8") as fh:
        for ex in examples:
            record = {"prompt": decode(ex.prompt), "label": chr(ex.label)}
            if ex.choices is not None:
                record["choices"] = [chr(c) for c in ex.choices]
            fh.write(json.dumps(record, sort_keys=True) + "\n")
