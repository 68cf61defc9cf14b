"""Seeded WorldTree-scale inputs for the benchmark.

One call writes, under a directory of its own:

- ``tables/*.tsv``: 5,000 explanation facts in six fact tables, each with a
  ``[SKIP] UID`` column and a ``[SKIP] COMMENT`` column, in the documented
  fact-table format;
- ``questions.tsv``: the first ``n_questions`` questions, four answer
  choices each, gold explanations of 1-16 facts;
- ``scores.tsv``: a full-coverage external scores file (every question x
  every fact) like the output of a trained relevance model;
- ``vectors.txt``: word2vec text vectors for every vocabulary word.

Content comes from the seed; shapes do not. The corpus is laid out for
``LATENT_QUESTIONS`` questions whatever ``n_questions`` is, and gold sizes
follow a fixed, seed-independent order whose every prefix has nearly the
same size histogram. So every seed gives a workload the same amount of work
(gold facts, context subsets, scored pairs), and run-to-run spread measures
the program rather than the draw.

Each question's gold facts form a multi-hop chain: the first shares key
words with the question and the answer, every later one shares link words
with the one before it (and one answer word), never with the stem. Stem
distractor facts share stem words with the question but nothing with its
chain, so a lexical ranking puts them above deep chain facts and iterative
re-ranking has something to recover.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np

N_FACTS = 5000
LATENT_QUESTIONS = 1000
VOCAB_SIZE = 3000
ZIPF_EXPONENT = 1.05
MAX_GOLD = 16
GOLD_DECAY = 1.0 / 3.0  # P(gold size = k) ~ exp(-(k - 1) * GOLD_DECAY)
VECTOR_DIM = 50
N_TABLES = 6
ROLES = ("GROUNDING", "LEXGLUE", "BACKGROUND", "CENTRAL")

# WorldTree facts read like "a leaf is a kind of plant part"; all but
# "kind" are stop words, dropped by the tokenizer after costing parse time
FACT_GLUE = ("a", "is", "the", "of", "kind", "to", "in", "an", "for", "by")
SYLLABLES = (
    "ba be bi bo bu da de di do du fa fe fi fo ka ke ki ko ku la le li lo lu "
    "ma me mi mo mu na ne ni no nu pa pe pi po ra re ri ro ru sa se si so su "
    "ta te ti to tu va ve vi vo za ze zi zo"
).split()


def gold_sizes(n: int) -> list[int]:
    """Gold size of latent question i, for i < n; independent of the seed.

    The quantile points (i * golden ratio) mod 1 are low-discrepancy, so
    any prefix of the list has close to the full distribution's histogram.
    """
    weights = [math.exp(-(k - 1) * GOLD_DECAY) for k in range(1, MAX_GOLD + 1)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    sizes = []
    for i in range(n):
        u = (0.5 + i * phi) % 1.0
        sizes.append(next((k + 1 for k, c in enumerate(cdf) if u < c), MAX_GOLD))
    return sizes


class _Words:
    """Zipf-distributed vocabulary of pronounceable, unique, stop-word-free words."""

    def __init__(self, rng: random.Random):
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < VOCAB_SIZE:
            word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.words = words
        self.weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(VOCAB_SIZE)]
        self.rng = rng
        # informative words: neither the very common head nor unseen tail
        self.mid = words[150:]

    def zipf(self, n: int) -> list[str]:
        return self.rng.choices(self.words, weights=self.weights, k=n)

    def rare(self, n: int) -> list[str]:
        return self.rng.sample(self.mid, n)


def _fact_text(rng: random.Random, words: _Words, required: list[str]) -> str:
    """5-12 content words containing ``required``, plus a little glue."""
    n_content = max(rng.randint(5, 12), len(required))
    content = list(required) + words.zipf(n_content - len(required))
    rng.shuffle(content)
    for _ in range(rng.randint(1, 3)):
        content.insert(rng.randrange(len(content) + 1), rng.choice(FACT_GLUE))
    return " ".join(content)


def _uid(rng: random.Random) -> str:
    h = f"{rng.getrandbits(64):016x}"
    return f"{h[:4]}-{h[4:8]}-{h[8:12]}-{h[12:]}"


def generate(seed: int, n_questions: int, directory: Path) -> dict[str, object]:
    """Write every input file for one seed and question count; return sizes."""
    if not 1 <= n_questions <= LATENT_QUESTIONS:
        raise ValueError(f"n_questions must be in 1..{LATENT_QUESTIONS}")
    rng = random.Random(seed)
    words = _Words(rng)
    sizes = gold_sizes(LATENT_QUESTIONS)

    facts: list[tuple[str, str]] = []  # (uid, text)
    used_uids: set[str] = set()

    def new_fact(text: str) -> int:
        uid = _uid(rng)
        while uid in used_uids:
            uid = _uid(rng)
        used_uids.add(uid)
        facts.append((uid, text))
        return len(facts) - 1

    questions = []
    for i in range(LATENT_QUESTIONS):
        key = words.rare(3)
        answer = words.rare(2)
        stem_extra = words.rare(2) + words.zipf(5)
        chain: list[int] = []
        links = words.rare(2)
        chain.append(new_fact(_fact_text(rng, words, key + [answer[0]] + links)))
        for _ in range(1, sizes[i]):
            nxt = words.rare(2)
            chain.append(new_fact(_fact_text(rng, words, links + [rng.choice(answer)] + nxt)))
            links = nxt
        distractor = new_fact(_fact_text(rng, words, stem_extra[:2]))
        stem_words = key + stem_extra
        rng.shuffle(stem_words)
        choices = [" ".join(answer)] + [" ".join(words.rare(2)) for _ in range(3)]
        correct = rng.randrange(4)
        choices[0], choices[correct] = choices[correct], choices[0]
        questions.append((i, stem_words, choices, "ABCD"[correct], chain, distractor))

    while len(facts) < N_FACTS:
        new_fact(_fact_text(rng, words, []))
    if len(facts) != N_FACTS:
        raise AssertionError(f"layout overflow: {len(facts)} facts for {N_FACTS}")
    texts = {text for _, text in facts}
    if len(texts) != N_FACTS:
        raise AssertionError("fact texts must be unique")

    directory.mkdir(parents=True, exist_ok=True)
    table_dir = directory / "tables"
    table_dir.mkdir(exist_ok=True)
    order = list(range(N_FACTS))
    rng.shuffle(order)
    table_paths = []
    for t in range(N_TABLES):
        n_cols = 2 + t % 3
        path = table_dir / f"table{t}.tsv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            header = [f"COL{c}" for c in range(n_cols)] + ["[SKIP] COMMENT", "[SKIP] UID"]
            fh.write("\t".join(header) + "\n")
            for idx in order[t::N_TABLES]:
                uid, text = facts[idx]
                toks = text.split()
                cut = [len(toks) * c // n_cols for c in range(n_cols + 1)]
                cells = [" ".join(toks[cut[c] : cut[c + 1]]) for c in range(n_cols)]
                fh.write("\t".join(cells + [f"note {idx}", uid]) + "\n")
        table_paths.append(path)

    kept = questions[:n_questions]
    questions_path = directory / "questions.tsv"
    with open(questions_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("QuestionID\tquestion\tAnswerKey\texplanation\n")
        for i, stem_words, choices, key, chain, _ in kept:
            text = " ".join(stem_words) + "? " + " ".join(
                f"({letter}) {choice}" for letter, choice in zip("ABCD", choices)
            )
            expl = " ".join(
                f"{facts[f][0]}|{'CENTRAL' if j == 0 else ROLES[(i + j) % len(ROLES)]}"
                for j, f in enumerate(chain)
            )
            fh.write(f"Q{seed}-{i:04d}\t{text}\t{key}\t{expl}\n")

    # external relevance: a noisy model that finds chain heads and fades
    # along the chain, fooled a little by stem distractors
    nrng = np.random.default_rng(rng.getrandbits(64))  # any int seed, negative too
    scores_path = directory / "scores.tsv"
    uids = [uid for uid, _ in facts]
    with open(scores_path, "w", encoding="utf-8", newline="\n") as fh:
        for i, _, _, _, chain, distractor in kept:
            row = nrng.normal(0.0, 1.0, N_FACTS)
            for depth, f in enumerate(chain):
                row[f] += max(4.0 - 0.6 * depth, 1.0) + nrng.normal(0.0, 0.5)
            row[distractor] += 2.5
            qid = f"Q{seed}-{i:04d}"
            fh.writelines(f"{qid}\t{uid}\t{score!r}\n" for uid, score in zip(uids, row.tolist()))

    vectors_path = directory / "vectors.txt"
    vocab = words.words + sorted(set(FACT_GLUE))
    table = nrng.normal(0.0, 1.0, (len(vocab), VECTOR_DIM))
    with open(vectors_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(vocab)} {VECTOR_DIM}\n")
        for word, row in zip(vocab, table.tolist()):
            fh.write(word + " " + " ".join(repr(x) for x in row) + "\n")

    return {
        "tables": [str(p) for p in table_paths],
        "questions": str(questions_path),
        "scores": str(scores_path),
        "vectors": str(vectors_path),
        "sizes": {
            "facts": N_FACTS,
            "questions": n_questions,
            "gold_facts": sum(len(q[4]) for q in kept),
            "vocabulary": len(vocab),
            "scores_mb": scores_path.stat().st_size / 1e6,
            "vectors_mb": vectors_path.stat().st_size / 1e6,
        },
    }
