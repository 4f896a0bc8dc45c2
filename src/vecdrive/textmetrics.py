"""N-gram text-quality metrics, implemented from scratch.

The explanation-quality evaluation needs BLEU, METEOR, ROUGE-L and CIDEr
without pulling in external linguistic resources, so these are the
hermetic variants:

* BLEU: corpus-level, orders 1..4, clipped modified precision, add-eps
  smoothing for zero precisions, brevity penalty exp(1 - r/c) for c < r.
* METEOR: exact-match unigram alignment (no stemming or synonyms),
  maximizing matches and then minimizing chunks; reported as
  "METEOR-exact". Minimizing chunks is NP-hard in general, so the search
  stops after METEOR_BUDGET expansions. It is exact unless it hits that
  budget; past it, the score uses the best alignment found, which never
  scores above the exact value. The search's first descent is walked
  before its stack is built: when it meets the root lower bound it is
  optimal and the search would return it, so it is returned at once.
* ROUGE-L: LCS-based F1, the LCS length computed bit-parallel.
* CIDEr: TF-IDF weighted n-gram cosine for n = 1..4, one reference per
  candidate, scaled by 10.

BLEU and CIDEr score one ``ngram_corpus`` count, so each sentence's
n-grams are counted once for both. All scores except CIDEr are on a
0..100 scale.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, count, repeat
from operator import add, mul, truediv
from typing import Sequence

Tokens = Sequence[str]

_TRAILING_PUNCT = ".,!?;:"
_BLEU_EPS = 1e-9
_ZEROS = repeat(0)

#: Search nodes the METEOR chunk minimization may expand per pair. It
#: counts work, not time, so a score never depends on machine speed.
METEOR_BUDGET = 5000


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip trailing punctuation.

    Tokens that are nothing but punctuation are dropped.
    """
    tokens = []
    for raw in text.lower().split():
        tok = raw.rstrip(_TRAILING_PUNCT)
        if tok:
            tokens.append(tok)
    return tokens


@dataclass(frozen=True)
class NgramCorpus:
    """Candidate/reference pairs counted once, shared by BLEU and CIDEr.

    Each token is an int id, 1..V-1 with V = vocabulary size + 1, and an
    n-gram is the base-V numeral of its token ids (g_n = g_{n-1} * V + t),
    so two grams of one order are equal exactly when their tokens are.
    Per sentence, ``*_grams`` holds one Counter per order 1..4, each in
    first-occurrence order like a Counter over the token tuples.
    """

    cand_lens: list[int]
    ref_lens: list[int]
    cand_grams: list[list[Counter]]
    ref_grams: list[list[Counter]]


def ngram_corpus(candidates: list[Tokens], references: list[Tokens]) -> NgramCorpus:
    """Count the 1..4-grams of every sentence, one reference per candidate."""
    if len(candidates) != len(references):
        raise ValueError(f"{len(candidates)} candidates vs {len(references)} references")
    if not candidates:
        raise ValueError("empty corpus")
    sentences = list(chain.from_iterable(zip(candidates, references)))
    vocab = dict(zip(dict.fromkeys(chain.from_iterable(sentences)), count(1)))
    base = repeat(len(vocab) + 1)
    lookup = vocab.__getitem__
    grams = []
    for tokens in sentences:
        ids = list(map(lookup, tokens))
        g2 = list(map(add, map(mul, ids, base), ids[1:]))
        g3 = list(map(add, map(mul, g2, base), ids[2:]))
        g4 = list(map(add, map(mul, g3, base), ids[3:]))
        grams.append([Counter(ids), Counter(g2), Counter(g3), Counter(g4)])
    return NgramCorpus(cand_lens=[len(c) for c in candidates],
                       ref_lens=[len(r) for r in references],
                       cand_grams=grams[0::2], ref_grams=grams[1::2])


def bleu(corpus: NgramCorpus) -> float:
    """Corpus BLEU-4 on a 0..100 scale, one reference per candidate."""
    cand_len = sum(corpus.cand_lens)
    ref_len = sum(corpus.ref_lens)
    if cand_len == 0:
        return 0.0
    matched = [0] * 4
    total = [0] * 4
    for length, cand, ref in zip(corpus.cand_lens, corpus.cand_grams, corpus.ref_grams):
        for k in range(4):
            total[k] += max(length - k, 0)
            # Clipped counts: min(candidate count, reference count or 0).
            cand_k = cand[k]
            matched[k] += sum(map(min, cand_k.values(), map(ref[k].get, cand_k, _ZEROS)))
    log_sum = 0.0
    for k in range(4):
        precision = matched[k] / total[k] if total[k] > 0 else 0.0
        if precision == 0.0:
            precision = _BLEU_EPS
        log_sum += 0.25 * math.log(precision)
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * brevity * math.exp(log_sum)


def _min_chunks(candidate: Tokens, reference: Tokens) -> tuple[int, int, bool]:
    """Exact-match unigram alignment: (matches, chunk count, exact).

    The number of matches per word is fixed (min of the two occurrence
    counts); which occurrences align is chosen to minimize the number of
    chunks, i.e. maximal runs contiguous in both sequences. Solved by
    depth-first branch-and-bound over candidate positions on an explicit
    stack, trying the run-extending reference position first, so
    near-monotone alignments (the common case for templated text) finish
    quickly.

    The bound: a candidate slot whose word has no spare occurrences must
    be matched, and it can continue a run only if its bigram with the
    previous candidate token occurs in the reference. Every must-match
    slot that cannot opens a chunk, so ``chunks + suffix[slot]`` is a
    lower bound. After METEOR_BUDGET expansions the search stops with
    ``exact`` False and the best chunk count found so far; it starts at
    ``matches``, which any alignment achieves or beats.

    Before the stack is built, the search's first descent is walked on
    its own, when the budget covers its ``n`` expansions. If it ends in
    an alignment of ``suffix[0]`` chunks, the root bound, that alignment
    is optimal, and every node the search would still pop is pruned (it
    holds ``chunks + suffix[slot] >= suffix[0]``: each must-match slot
    above it that opens a chunk is counted in ``chunks``), so the search
    would return exactly this. Otherwise the search runs from the root
    as if the walk had not happened.
    """
    cand_counts: dict[str, int] = {}
    for w in candidate:
        cand_counts[w] = cand_counts.get(w, 0) + 1
    positions: dict[str, list[int]] = {}
    masks: dict[str, int] = {}
    for j, w in enumerate(reference):
        if w in masks:
            positions[w].append(j)
            masks[w] |= 1 << j
        elif w in cand_counts:
            positions[w] = [j]
            masks[w] = 1 << j
    if not masks:
        return 0, 0, True
    quota = {w: min(cand_counts[w], len(js)) for w, js in positions.items()}
    matches = sum(quota.values())
    spare = {w: cand_counts[w] - q for w, q in quota.items()}
    ref_bigrams = set(zip(reference, reference[1:]))

    # Candidate positions of matchable words; some may stay unmatched when
    # the candidate has more occurrences than the reference.
    slots = [i for i, w in enumerate(candidate) if w in quota]
    n = len(slots)
    words = [candidate[i] for i in slots]
    seen: dict[str, int] = {}
    occurrence = []          # earlier slots of the same word
    for w in words:
        c = seen.get(w, 0)
        occurrence.append(c)
        seen[w] = c + 1
    # Whether the next slot is the next candidate position.
    adjacent = [k + 1 < n and slots[k + 1] == slots[k] + 1 for k in range(n)]
    suffix = [0] * (n + 1)   # must-match slots from here on that open a chunk
    for k in range(n - 1, -1, -1):
        i, w = slots[k], words[k]
        opens = spare[w] == 0 and (i == 0 or (candidate[i - 1], w) not in ref_bigrams)
        suffix[k] = suffix[k + 1] + opens

    # The first descent: at each slot the child the search pops first. A
    # word with a free reference position has matches left to make; one
    # without has made all of them, so its slot stays unmatched. The walk
    # stays on the root bound only while chunks open at must-match slots.
    if n <= METEOR_BUDGET:
        used, prev, chunks = 0, -2, 0
        for k in range(n):
            free = masks[words[k]] & ~used
            if prev >= 0 and free >> (prev + 1) & 1:
                j = prev + 1
            elif not free:
                prev = -2
                continue
            elif suffix[k] == suffix[k + 1]:
                break    # a chunk the root bound does not count
            else:
                j = (free & -free).bit_length() - 1
                chunks += 1
            used |= 1 << j
            prev = j if adjacent[k] else -2
        else:
            return matches, chunks, True

    best = matches
    expansions = 0
    # (slot, used reference positions as bits, reference position matched
    # at the candidate position before the slot or -2, chunks so far)
    stack = [(0, 0, -2, 0)]
    while stack:
        k, used, prev, chunks = stack.pop()
        if chunks + suffix[k] >= best:
            continue
        if k == n:
            best = chunks
            continue
        if expansions == METEOR_BUDGET:
            return matches, best, False
        expansions += 1
        w = words[k]
        matched = (used & masks[w]).bit_count()
        # Children are pushed in reverse order of trial: leaving the slot
        # unmatched is tried last, the run-extending position first.
        if occurrence[k] - matched < spare[w]:
            stack.append((k + 1, used, -2, chunks))
        if matched < quota[w]:
            free = masks[w] & ~used
            extend = prev + 1 if prev >= 0 and free >> (prev + 1) & 1 else -1
            chain = adjacent[k]
            # Children that open a chunk are not pushed when the bound
            # already rules them out: popped, they would be pruned.
            if chunks + 1 + suffix[k + 1] < best:
                for j in reversed(positions[w]):
                    if free >> j & 1 and j != extend:
                        stack.append((k + 1, used | 1 << j, j if chain else -2, chunks + 1))
            if extend >= 0:
                stack.append((k + 1, used | 1 << extend, extend if chain else -2, chunks))
    return matches, best, True


def meteor(candidate: Tokens, reference: Tokens, exact: list[bool] | None = None) -> float:
    """METEOR-exact on a 0..100 scale.

    F = 10PR / (R + 9P), penalty = 0.5 * (chunks / matches)^3,
    score = 100 * F * (1 - penalty). Zero matches score 0. If ``exact``
    is given, whether the chunk search finished within its budget is
    appended to it.
    """
    if not reference:
        raise ValueError("empty reference")
    m, chunks, finished = _min_chunks(candidate, reference)
    if exact is not None:
        exact.append(finished)
    if m == 0:
        return 0.0
    precision = m / len(candidate)
    recall = m / len(reference)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (chunks / m) ** 3
    return 100.0 * f_mean * (1.0 - penalty)


def lcs_length(a: Tokens, b: Tokens) -> int:
    """Longest common subsequence length, bit-parallel over ``b``.

    Allison & Dix (1986) in Hyyro's (2004) form: one Python int holds a
    bit per position of ``b``, and each token of ``a`` updates it with a
    handful of big-int operations. The zero bits count the LCS length.
    """
    masks: dict = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        m = masks.get(x)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: Tokens, reference: Tokens) -> float:
    """ROUGE-L F1 on a 0..100 scale."""
    lcs = lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    return 100.0 * 2.0 * precision * recall / (precision + recall)


def cider(corpus: NgramCorpus) -> float:
    """CIDEr with a single reference per candidate.

    For n = 1..4, sentences become TF-IDF vectors over n-grams (TF is the
    raw in-sentence count, IDF = log(N / df) with df counted over the
    reference corpus and floored at 1); the per-n score is the cosine
    between candidate and reference vectors, zero when either vector is
    zero. The corpus score is the mean over pairs of 10 * mean over n.
    """
    n_docs = len(corpus.ref_grams)
    doc_freq = [Counter() for _ in range(4)]
    for grams in corpus.ref_grams:
        for df, counts in zip(doc_freq, grams):
            df.update(counts.keys())
    idf = [dict(zip(df, map(math.log, map(truediv, repeat(n_docs), df.values()))))
           for df in doc_freq]
    unseen = repeat(math.log(n_docs))   # a gram no reference holds: df floored at 1

    total = 0.0
    for cand_grams, ref_grams in zip(corpus.cand_grams, corpus.ref_grams):
        per_n = 0.0
        for idf_n, cand_n, ref_n in zip(idf, cand_grams, ref_grams):
            cand_idf = list(map(idf_n.get, cand_n, unseen))
            cand_w = list(map(mul, cand_n.values(), cand_idf))
            ref_w = list(map(mul, ref_n.values(), map(idf_n.__getitem__, ref_n)))
            # Summed in candidate order. A gram the reference lacks adds an
            # exact 0.0, which leaves every partial sum as it was.
            dot = sum(map(mul, cand_w, map(mul, map(ref_n.get, cand_n, _ZEROS), cand_idf)))
            norm_c = math.sqrt(sum(map(mul, cand_w, cand_w)))
            norm_r = math.sqrt(sum(map(mul, ref_w, ref_w)))
            if norm_c > 0 and norm_r > 0:
                per_n += dot / (norm_c * norm_r)
        total += 10.0 * per_n / 4.0
    return total / len(corpus.cand_grams)
