import collections
from collections import Counter
import itertools
import math
import random
import sys
import textwrap
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from vecdrive import jsonio, textmetrics
from vecdrive.cli import main
from vecdrive.oracle import Format, rule_oracle_decide
from vecdrive.planmetrics import TextEvalRow, evaluate_explanations
from vecdrive.report import render_text_table, text_row_from_dict, text_row_to_dict
from vecdrive.scene import load_scenarios
from vecdrive.simgen import GenSpec, generate, mirror_scenario
from vecdrive.textmetrics import (
    _min_chunks,
    bleu,
    cider,
    lcs_length,
    meteor,
    ngram_corpus,
    rouge_l,
    tokenize,
)


# --- tokenize ----------------------------------------------------------------

def test_tokenize_lowercases_splits_strips():
    assert tokenize("The cat SAT down.") == ["the", "cat", "sat", "down"]
    assert tokenize("Stop!  now;") == ["stop", "now"]
    assert tokenize("a, b: c?") == ["a", "b", "c"]


def test_tokenize_drops_pure_punctuation():
    assert tokenize("wait ... go") == ["wait", "go"]


# --- BLEU --------------------------------------------------------------------

def corpus_bleu(candidates, references):
    return bleu(ngram_corpus(candidates, references))


def test_bleu_identity_is_100():
    corpus = [["the", "car", "turns", "left", "now"]]
    assert corpus_bleu(corpus, corpus) == pytest.approx(100.0, abs=1e-6)


def test_bleu_repeated_token_hand_value():
    cand = [["the", "the", "the", "the"]]
    ref = [["the", "cat", "sat", "down"]]
    # Clipped precisions: p1 = 1/4; p2, p3, p4 have zero matches -> eps.
    eps = 1e-9
    expected = 100.0 * math.exp(
        0.25 * (math.log(0.25) + 3 * math.log(eps))
    )  # brevity penalty 1 since c == r
    assert corpus_bleu(cand, ref) == pytest.approx(expected, rel=1e-9)


def test_bleu_empty_candidate_is_zero():
    assert corpus_bleu([[]], [["a", "b", "c", "d"]]) == 0.0


def test_bleu_brevity_penalty():
    cand = [["a", "b"]]
    ref = [["a", "b", "c", "d"]]
    # p1 = 1, p2 = 1, p3 = p4 = eps (no trigrams in candidate).
    eps = 1e-9
    expected = 100.0 * math.exp(1 - 4 / 2) * math.exp(0.25 * (2 * math.log(eps)))
    assert corpus_bleu(cand, ref) == pytest.approx(expected, rel=1e-9)


def test_bleu_is_corpus_level_not_mean_of_sentences():
    # Corpus statistics pool n-gram counts before dividing.
    cands = [["a", "a"], ["b", "c", "d", "e"]]
    refs = [["a", "x"], ["b", "c", "d", "e"]]
    p1 = (1 + 4) / (2 + 4)
    p2 = (0 + 3) / (1 + 3)
    p3 = (0 + 2) / (0 + 2)
    p4 = (0 + 1) / (0 + 1)
    expected = 100.0 * math.exp(sum(0.25 * math.log(p) for p in (p1, p2, p3, p4)))
    assert corpus_bleu(cands, refs) == pytest.approx(expected, rel=1e-12)


def test_bleu_permutation_equivariant():
    cands = [["a", "b", "c", "d"], ["e", "f", "g", "h"], ["i", "j", "k", "l"]]
    refs = [["a", "b", "x", "d"], ["e", "f", "g", "h"], ["i", "z", "k", "l"]]
    assert corpus_bleu(cands, refs) == pytest.approx(
        corpus_bleu(list(reversed(cands)), list(reversed(refs))), abs=1e-12
    )


def test_bleu_rejects_mismatched_or_empty():
    with pytest.raises(ValueError):
        ngram_corpus([["a"]], [])
    with pytest.raises(ValueError):
        ngram_corpus([], [])


# --- METEOR ------------------------------------------------------------------

def test_meteor_no_match_is_zero():
    assert meteor(["x", "y"], ["a", "b"]) == 0.0


def test_meteor_identity_hand_value():
    # m=3, chunks=1, F=1, penalty=0.5*(1/3)^3.
    expected = 100.0 * (1.0 - 0.5 / 27.0)
    assert meteor(["the", "cat", "sat"], ["the", "cat", "sat"]) == pytest.approx(
        expected, abs=1e-9
    )
    assert expected == pytest.approx(98.14814814814815)


def test_meteor_single_shared_token():
    # m=1, chunks=1 -> penalty 0.5; P=R=1/2 -> F=0.5.
    assert meteor(["a", "x"], ["y", "a"]) == pytest.approx(25.0, abs=1e-9)


def test_meteor_chunk_minimization_beats_greedy():
    # Greedy first-position matching of "b" would split the "a b" run.
    cand = ["b", "a", "b"]
    ref = ["a", "b", "b"]
    # Optimal: match cand[1]='a'->ref[0], cand[2]='b'->ref[1] (contiguous),
    # cand[0]='b'->ref[2]: chunks = 2. m=3, P=R=1, F=1.
    expected = 100.0 * (1.0 - 0.5 * (2 / 3) ** 3)
    assert meteor(cand, ref) == pytest.approx(expected, abs=1e-9)


def brute_force_chunks(candidate, reference):
    # Exhaustive minimal-chunk oracle over all maximal matchings.
    from collections import Counter
    cand_counts = Counter(candidate)
    ref_counts = Counter(reference)
    quota = {w: min(cand_counts[w], ref_counts[w]) for w in cand_counts if w in ref_counts}
    m = sum(quota.values())
    if m == 0:
        return 0, 0
    words = sorted(quota)
    cand_pos = {w: [i for i, t in enumerate(candidate) if t == w] for w in words}
    ref_pos = {w: [j for j, t in enumerate(reference) if t == w] for w in words}
    best = None
    choices_per_word = []
    for w in words:
        pairs = []
        for csub in itertools.combinations(cand_pos[w], quota[w]):
            for rperm in itertools.permutations(ref_pos[w], quota[w]):
                pairs.append(list(zip(csub, rperm)))
        choices_per_word.append(pairs)
    for combo in itertools.product(*choices_per_word):
        matching = sorted(p for group in combo for p in group)
        chunks = 0
        prev = (-5, -5)
        for c, r in matching:
            if not (c == prev[0] + 1 and r == prev[1] + 1):
                chunks += 1
            prev = (c, r)
        if best is None or chunks < best:
            best = chunks
    return m, best


@st.composite
def small_vocab_pair(draw):
    vocab = draw(st.sampled_from(["ab", "abc"]))
    return (draw(st.lists(st.sampled_from(vocab), min_size=0, max_size=7)),
            draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=7)))


@settings(max_examples=150, deadline=None)
@given(small_vocab_pair())
def test_meteor_alignment_matches_brute_force(pair):
    cand, ref = pair
    matches, chunks, exact = _min_chunks(cand, ref)
    assert (matches, chunks) == brute_force_chunks(cand, ref)
    assert exact


@settings(max_examples=150, deadline=None)
@given(small_vocab_pair(), st.integers(0, 12))
def test_search_past_its_budget_keeps_a_valid_upper_bound(pair, budget):
    cand, ref = pair
    with mock.patch.object(textmetrics, "METEOR_BUDGET", budget):
        matches, chunks, exact = _min_chunks(cand, ref)
    exact_matches, exact_chunks = brute_force_chunks(cand, ref)
    assert matches == exact_matches
    assert exact_chunks <= chunks <= matches
    if exact:
        assert chunks == exact_chunks


def long_rationales(seed):
    return [tokenize(rule_oracle_decide(s, Format.LONG).rationale_long)
            for s in generate(GenSpec(200, seed))]


def best_of_3_under_50_ms(candidate, reference):
    """Each retry runs only while the previous ones were all too slow."""
    for _ in range(3):
        start = time.perf_counter()
        _min_chunks(candidate, reference)
        if time.perf_counter() - start < 0.05:
            return True
    return False


def test_meteor_on_mismatched_scenes_is_bounded():
    # A fluent explanation of the wrong scene: 11 of these 200 pairs took
    # over 1 s each with the unbounded search, and pair 1 over 150 s.
    slow = [i for i, (c, r) in enumerate(zip(long_rationales(8), long_rationales(7)))
            if not best_of_3_under_50_ms(c, r)]
    assert slow == []


def reversed_and_shuffled_pairs():
    """(candidate, reference) pairs whose candidate reverses or shuffles the
    reference: 14 to 60 tokens of rule text or of a two- or three-word
    vocabulary."""
    rng = random.Random(6)
    texts = [t for t in long_rationales(7) if len(t) >= 60][:2]
    texts += [[rng.choice(vocab) for _ in range(60)] for vocab in ("ab", "abc")]
    pairs = []
    for length in range(14, 61):
        for text in texts:
            ref = text[:length]
            pairs += [(ref[::-1], ref), (rng.sample(ref, length), ref)]
    return pairs


def test_meteor_on_reversed_and_shuffled_candidates_is_bounded():
    slow = [(len(ref), " ".join(cand)) for cand, ref in reversed_and_shuffled_pairs()
            if not best_of_3_under_50_ms(cand, ref)]
    assert slow == []


# --- the chunk search against its stack-only form ------------------------------
#
# ``_min_chunks`` as it was before the first descent was walked on its own,
# reading the patched budget from ``textmetrics``. ``_min_chunks`` must
# return the same (matches, chunks, exact) on every pair and budget.

def reference_min_chunks(candidate, reference):
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
    """
    cand_counts = Counter(candidate)
    ref_counts = Counter(reference)
    quota = {w: min(cand_counts[w], c) for w, c in ref_counts.items() if w in cand_counts}
    matches = sum(quota.values())
    if matches == 0:
        return 0, 0, True

    positions = {w: [] for w in quota}
    for j, w in enumerate(reference):
        if w in quota:
            positions[w].append(j)
    masks = {w: sum(1 << j for j in js) for w, js in positions.items()}
    spare = {w: cand_counts[w] - quota[w] for w in quota}
    ref_bigrams = set(zip(reference, reference[1:]))

    # Candidate positions of matchable words; some may stay unmatched when
    # the candidate has more occurrences than the reference.
    slots = [i for i, w in enumerate(candidate) if w in quota]
    n = len(slots)
    words = [candidate[i] for i in slots]
    seen = Counter()
    occurrence = []          # earlier slots of the same word
    for w in words:
        occurrence.append(seen[w])
        seen[w] += 1
    # Whether the next slot is the next candidate position.
    adjacent = [k + 1 < n and slots[k + 1] == slots[k] + 1 for k in range(n)]
    suffix = [0] * (n + 1)   # must-match slots from here on that open a chunk
    for k in range(n - 1, -1, -1):
        i, w = slots[k], words[k]
        opens = spare[w] == 0 and (i == 0 or (candidate[i - 1], w) not in ref_bigrams)
        suffix[k] = suffix[k + 1] + opens

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
        if expansions == textmetrics.METEOR_BUDGET:
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


@st.composite
def search_pair(draw):
    """A reference over a few words and a candidate drawn apart from it or
    edited from it: tokens swapped, dropped, inserted or repeated."""
    vocab = draw(st.sampled_from(["ab", "abc", "abcd", "abcdefgh"]))
    word = st.sampled_from(vocab)
    ref = draw(st.lists(word, min_size=1, max_size=24))
    if draw(st.booleans()):
        return draw(st.lists(word, max_size=24)), ref
    cand = list(ref)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(cand)))
        edit = draw(st.sampled_from(["swap", "drop", "insert", "repeat"]))
        if edit == "insert" or not cand:
            cand.insert(i, draw(word))
        elif edit == "drop":
            del cand[min(i, len(cand) - 1)]
        elif edit == "repeat":
            cand.insert(i, cand[min(i, len(cand) - 1)])
        elif i + 1 < len(cand):
            cand[i], cand[i + 1] = cand[i + 1], cand[i]
    return cand, ref


@settings(max_examples=400, deadline=None)
@given(search_pair(), st.one_of(st.none(), st.integers(0, 50), st.integers(-2, 2).map(str)))
def test_chunk_search_equals_the_stack_only_search(pair, budget):
    """The budget is the default, drawn from 0..50, or given as an offset
    from the number of matchable candidate tokens: with a budget of that
    many expansions the search can afford its first descent and no more."""
    cand, ref = pair
    if budget is None:
        budget = textmetrics.METEOR_BUDGET
    elif isinstance(budget, str):
        budget = max(0, sum(w in ref for w in cand) + int(budget))
    with mock.patch.object(textmetrics, "METEOR_BUDGET", budget):
        assert _min_chunks(cand, ref) == reference_min_chunks(cand, ref)


def test_chunk_search_equals_the_stack_only_search_on_every_short_pair():
    """Every pair of up to 6 tokens over two words or 4 over three, under
    the default budget and under budgets of the candidate's matchable
    token count and one less: the search's first descent and no more."""
    by_slots = collections.defaultdict(list)
    for vocab, longest in (("ab", 6), ("abc", 4)):
        sentences = [list(s) for k in range(longest + 1)
                     for s in itertools.product(vocab, repeat=k)]
        for cand in sentences:
            for ref in sentences[1:]:
                by_slots[sum(w in ref for w in cand)].append((cand, ref))
    for n, pairs in by_slots.items():
        for budget in (max(n - 1, 0), n, textmetrics.METEOR_BUDGET):
            with mock.patch.object(textmetrics, "METEOR_BUDGET", budget):
                assert_searches_agree(pairs)


def assert_searches_agree(pairs):
    """Equal triples on every pair; returns how many hit the budget."""
    inexact = 0
    for cand, ref in pairs:
        expected = reference_min_chunks(cand, ref)
        assert _min_chunks(cand, ref) == expected, (cand, ref)
        inexact += not expected[2]
    return inexact


def test_chunk_search_equals_the_stack_only_search_on_mismatched_scenes():
    assert_searches_agree(list(zip(long_rationales(8), long_rationales(7))))


def test_chunk_search_equals_the_stack_only_search_on_reversed_and_shuffled_text():
    pairs = reversed_and_shuffled_pairs()
    assert assert_searches_agree(pairs) > 0     # pairs past the budget keep their result
    with mock.patch.object(textmetrics, "METEOR_BUDGET", 40):
        assert_searches_agree(pairs)


def near_miss_pairs(n, seed):
    """The benchmark's text pairs: the LONG rationale of a dense scene's
    mirror image against that of the scene."""
    pairs = []
    for scenario in generate(GenSpec(n_scenarios=n, seed=seed, agent_density=1.0)):
        mirror = mirror_scenario(scenario, scenario.id + "-mirror")
        pairs.append((tokenize(rule_oracle_decide(mirror, Format.LONG).rationale_long),
                      tokenize(rule_oracle_decide(scenario, Format.LONG).rationale_long)))
    return pairs


def test_chunk_search_equals_the_stack_only_search_on_near_miss_pairs():
    pairs = near_miss_pairs(160, 3)
    assert_searches_agree(pairs)
    # Budgets around the pairs' slot counts, where the walk turns on.
    for budget in (0, *range(30, 61, 2)):
        with mock.patch.object(textmetrics, "METEOR_BUDGET", budget):
            assert_searches_agree(pairs)
    row = evaluate_explanations([" ".join(c) for c, _ in pairs],
                                [" ".join(r) for _, r in pairs])
    assert row.meteor_inexact_pairs == sum(
        not reference_min_chunks(c, r)[2] for c, r in pairs)


def test_evaluate_explanations_counts_inexact_pairs():
    inexact = " ".join("abbaab" * 5)    # 30 tokens over 2 words: past the budget
    reference = " ".join("ab" * 15)
    assert not _min_chunks(tokenize(inexact), tokenize(reference))[2]
    row = evaluate_explanations([inexact, reference, inexact], [reference] * 3)
    assert row.meteor_inexact_pairs == 2
    assert text_row_to_dict(row)["meteor_inexact_pairs"] == 2
    assert text_row_from_dict(text_row_to_dict(row)) == row
    assert "METEOR inexact pairs" in render_text_table({"m": row})
    exact = evaluate_explanations([reference], [reference])
    assert exact.meteor_inexact_pairs == 0
    assert "meteor_inexact_pairs" not in text_row_to_dict(exact)
    assert "inexact" not in render_text_table({"m": exact})


@pytest.mark.parametrize("value", [-1, 1.5, True, "2"])
def test_inexact_pair_count_must_be_a_count(value):
    with pytest.raises(ValueError):
        TextEvalRow(1.0, 1.0, 1.0, 1.0, meteor_inexact_pairs=value).validate()


def test_eval_text_scores_a_2000_token_rationale(tmp_path):
    # The recursive search hit Python's recursion limit on such a reply.
    assert main(["simgen", "--out", str(tmp_path), "--n", "10", "--seed", "4",
                 "--train-frac", "0.5"]) == 0
    verbose = tmp_path / "verbose.py"
    verbose.write_text(textwrap.dedent("""\
        import json, sys
        from vecdrive.oracle import Format, RuleOracle
        from vecdrive.scene import scenario_from_dict
        for line in sys.stdin:
            scenario = scenario_from_dict(json.loads(line)["scenario"])
            d = RuleOracle().decide(scenario, Format.LONG)
            sys.stdout.write(json.dumps({"v": 1, "action": d.action.value,
                "rationale": " ".join([d.rationale_long] * 80),
                "hazard_ids": list(d.hazard_ids)}) + "\\n")
            sys.stdout.flush()
    """))
    endpoint = f"exec:{sys.executable} {verbose}"
    scenarios = tmp_path / "scenarios_eval.jsonl"
    assert min(len(tokenize(rule_oracle_decide(s, Format.LONG).rationale_long)) * 80
               for s in load_scenarios(str(scenarios))) > 2000
    assert main(["eval-text", "--scenarios", str(scenarios), "--oracle", endpoint,
                 "--out", str(tmp_path)]) == 0
    row = jsonio.loads((tmp_path / "eval_text.json").read_text())["rows"][endpoint]
    assert 0.0 < row["meteor"] < 50.0


def test_meteor_empty_reference_rejected():
    with pytest.raises(ValueError):
        meteor(["a"], [])


# --- ROUGE-L -----------------------------------------------------------------

def test_rouge_identity():
    assert rouge_l(["a", "b", "c"], ["a", "b", "c"]) == pytest.approx(100.0)


def test_rouge_disjoint():
    assert rouge_l(["a", "b"], ["x", "y"]) == 0.0


def test_rouge_crossed_order_hand_value():
    # LCS("a b c d", "a c b d") = 3.
    assert lcs_length("abcd", "acbd") == 3
    assert rouge_l(list("abcd"), list("acbd")) == pytest.approx(75.0)


def test_rouge_handles_empty():
    assert rouge_l([], ["a"]) == 0.0
    assert rouge_l(["a"], []) == 0.0


def brute_force_lcs(a, b):
    # All subsequences of a, checked for being subsequences of b.
    def is_subseq(s, t):
        it = iter(t)
        return all(x in it for x in s)

    best = 0
    for r in range(len(a), 0, -1):
        for sub in itertools.combinations(a, r):
            if is_subseq(sub, b):
                return r
    return best


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from("abc"), min_size=0, max_size=7),
    st.lists(st.sampled_from("abc"), min_size=0, max_size=7),
)
def test_lcs_matches_brute_force(a, b):
    assert lcs_length(a, b) == brute_force_lcs(a, b)


def dp_lcs_length(a, b):
    # Longest common subsequence length by dynamic programming.
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["ab", "abcd", "abcdefghij"]).flatmap(lambda vocab: st.tuples(
    st.lists(st.sampled_from(vocab), max_size=80),
    st.lists(st.sampled_from(vocab), max_size=80))))
def test_bit_parallel_lcs_matches_dynamic_programming(pair):
    a, b = pair
    assert lcs_length(a, b) == dp_lcs_length(a, b) == lcs_length(b, a)


# --- CIDEr -------------------------------------------------------------------

def corpus_cider(candidates, references):
    return cider(ngram_corpus(candidates, references))


def test_cider_two_distinct_identical_pairs():
    corpus = [["red", "car", "ahead", "now"], ["blue", "bike", "left", "side"]]
    assert corpus_cider(corpus, corpus) == pytest.approx(10.0, abs=1e-9)


def test_cider_no_shared_ngram_is_zero():
    cands = [["x", "y", "z", "w"], ["p", "q", "r", "s"]]
    refs = [["a", "b", "c", "d"], ["e", "f", "g", "h"]]
    assert corpus_cider(cands, refs) == 0.0


def hand_cider_three_pairs(cands, refs):
    # Independent spreadsheet-style computation with plain dicts.
    import collections

    def grams(toks, n):
        out = collections.Counter()
        for i in range(len(toks) - n + 1):
            out[tuple(toks[i:i + n])] += 1
        return out

    n_docs = len(refs)
    total = 0.0
    for cand, ref in zip(cands, refs):
        acc = 0.0
        for n in range(1, 5):
            df = collections.Counter()
            for other in refs:
                for g in set(grams(other, n)):
                    df[g] += 1
            cv = {g: c * math.log(n_docs / max(df.get(g, 0), 1)) for g, c in grams(cand, n).items()}
            rv = {g: c * math.log(n_docs / max(df.get(g, 0), 1)) for g, c in grams(ref, n).items()}
            dot = sum(w * rv.get(g, 0.0) for g, w in cv.items())
            nc = math.sqrt(sum(w * w for w in cv.values()))
            nr = math.sqrt(sum(w * w for w in rv.values()))
            acc += dot / (nc * nr) if nc > 0 and nr > 0 else 0.0
        total += 10.0 * acc / 4.0
    return total / len(cands)


def test_cider_three_pair_corpus_matches_hand_computation():
    cands = [
        ["a", "red", "car", "turns", "left"],
        ["a", "blue", "car", "stops", "here"],
        ["the", "cyclist", "crosses", "the", "road"],
    ]
    refs = [
        ["a", "red", "car", "turns", "right"],
        ["a", "blue", "truck", "stops", "here"],
        ["the", "cyclist", "crosses", "a", "road"],
    ]
    assert corpus_cider(cands, refs) == pytest.approx(
        hand_cider_three_pairs(cands, refs), abs=1e-12)


def test_cider_permutation_equivariant():
    cands = [["a", "b", "c", "d"], ["e", "f", "g", "h"], ["a", "b", "x", "y"]]
    refs = [["a", "b", "c", "e"], ["e", "f", "g", "h"], ["a", "b", "x", "z"]]
    perm = [2, 0, 1]
    assert corpus_cider(cands, refs) == pytest.approx(
        corpus_cider([cands[i] for i in perm], [refs[i] for i in perm]), abs=1e-12
    )


def test_cider_rejects_empty_or_mismatched():
    with pytest.raises(ValueError):
        ngram_corpus([], [])
    with pytest.raises(ValueError):
        ngram_corpus([["a"]], [["a"], ["b"]])


# --- the counted corpus against string-tuple counting ---------------------------
#
# The BLEU and CIDEr bodies as they were before a corpus was counted once:
# each sentence's n-grams counted as tuples of strings, per metric. Scores
# from ngram_corpus must equal these in every bit.

def tuple_ngram_counts(tokens):
    return [collections.Counter(zip(*(tokens[k:] for k in range(n)))) for n in range(1, 5)]


def tuple_bleu(candidates, references):
    cand_len = sum(len(c) for c in candidates)
    ref_len = sum(len(r) for r in references)
    if cand_len == 0:
        return 0.0
    matched = [0] * 4
    total = [0] * 4
    for cand, ref in zip(candidates, references):
        for k, (cand_counts, ref_counts) in enumerate(zip(tuple_ngram_counts(cand),
                                                          tuple_ngram_counts(ref))):
            total[k] += sum(cand_counts.values())
            matched[k] += sum(min(count, ref_counts[g]) for g, count in cand_counts.items())
    log_sum = 0.0
    for k in range(4):
        precision = matched[k] / total[k] if total[k] > 0 else 0.0
        if precision == 0.0:
            precision = 1e-9
        log_sum += 0.25 * math.log(precision)
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * brevity * math.exp(log_sum)


def tuple_cider(candidates, references):
    n_docs = len(references)
    ref_grams = [tuple_ngram_counts(ref) for ref in references]
    doc_freq = [collections.Counter() for _ in range(4)]
    for grams in ref_grams:
        for df, counts in zip(doc_freq, grams):
            df.update(counts.keys())
    idf = [{g: math.log(n_docs / d) for g, d in df.items()} for df in doc_freq]
    idf_unseen = math.log(n_docs)
    total = 0.0
    for cand, ref_counts in zip(candidates, ref_grams):
        per_n = 0.0
        for idf_n, cand_n, ref_n in zip(idf, tuple_ngram_counts(cand), ref_counts):
            cand_vec = {g: c * idf_n.get(g, idf_unseen) for g, c in cand_n.items()}
            ref_vec = {g: c * idf_n[g] for g, c in ref_n.items()}
            dot = sum(w * ref_vec[g] for g, w in cand_vec.items() if g in ref_vec)
            norm_c = math.sqrt(sum(w * w for w in cand_vec.values()))
            norm_r = math.sqrt(sum(w * w for w in ref_vec.values()))
            if norm_c > 0 and norm_r > 0:
                per_n += dot / (norm_c * norm_r)
        total += 10.0 * per_n / 4.0
    return total / len(candidates)


# Few words, so sentences repeat grams and share them across pairs; the
# candidate-only words give grams no reference holds. A reference may
# repeat an earlier one, and a candidate may be its pair's reference (the
# same list or an equal copy) or repeat another pair's sentence, so
# identical pairs and sentences counted once for several pairs are drawn.
_REF_WORDS = ["car", "left", "turn", "the", "stop", "a"]
_sentence = st.lists(st.sampled_from(_REF_WORDS + ["cyclist", "now"]), max_size=12)
_ref_sentence = st.lists(st.sampled_from(_REF_WORDS), max_size=12)


@st.composite
def _pairs(draw):
    references = []
    for _ in range(draw(st.integers(1, 6))):
        if references and draw(st.booleans()):
            references.append(list(draw(st.sampled_from(references))))
        else:
            references.append(draw(_ref_sentence))
    candidates = []
    for ref in references:
        source = draw(st.sampled_from(["drawn", "same", "copy", "repeat"]))
        if source == "same":
            candidates.append(ref)
        elif source == "copy":
            candidates.append(list(ref))
        elif source == "repeat":
            candidates.append(list(draw(st.sampled_from(references + candidates))))
        else:
            candidates.append(draw(_sentence))
    return candidates, references


_corpus = _pairs()


def assert_scores_as_tuples(candidates, references):
    corpus = ngram_corpus(candidates, references)
    assert repr(bleu(corpus)) == repr(tuple_bleu(candidates, references))
    assert repr(cider(corpus)) == repr(tuple_cider(candidates, references))


@settings(max_examples=300, deadline=None)
@given(_corpus)
def test_counted_corpus_scores_as_string_tuples(pair):
    assert_scores_as_tuples(*pair)


@settings(max_examples=100, deadline=None)
@given(_corpus)
def test_an_identical_pair_shares_one_count(pair):
    """BLEU and CIDEr take their identical-pair paths on a shared count."""
    candidates, references = pair
    corpus = ngram_corpus(candidates, references)
    assert ([c is r for c, r in zip(corpus.cand_grams, corpus.ref_grams)]
            == [c == r for c, r in zip(candidates, references)])


#: Distinct words of the wide pair: past 2**(63/4), so a 4-gram of words
#: numbered after them packs into an id above 2**63.
WIDE_VOCAB = 60_000


@settings(max_examples=8, deadline=None)
@given(_corpus)
def test_packed_ids_past_2_63_score_as_string_tuples(pair):
    wide = [f"w{i}" for i in range(WIDE_VOCAB)]
    candidates, references = [wide[-4:]] + pair[0], [wide] + pair[1]
    corpus = ngram_corpus(candidates, references)
    # Words are numbered pair by pair, so every drawn word comes after the wide ones.
    drawn = corpus.cand_grams[1:] + corpus.ref_grams[1:]
    assert all(g > 2 ** 63 for counts in drawn for g in counts[3])
    assert_scores_as_tuples(candidates, references)


def test_sentences_of_no_one_or_repeated_tokens_score_as_string_tuples():
    candidates = [[], ["a"], ["a", "a", "a", "a", "a"], ["b", "a", "b", "a"]]
    references = [["a"], [], ["a", "a"], ["a", "b", "a", "b", "c"]]
    assert_scores_as_tuples(candidates, references)
    assert_scores_as_tuples(references, candidates)


def test_counted_corpus_scores_benchmark_like_pairs_as_string_tuples():
    spec = GenSpec(n_scenarios=40, seed=3, agent_density=1.0)
    candidates, references = [], []
    for scenario in generate(spec):
        mirror = mirror_scenario(scenario, scenario.id + "-mirror")
        candidates.append(tokenize(rule_oracle_decide(mirror, Format.LONG).rationale_long))
        references.append(tokenize(rule_oracle_decide(scenario, Format.LONG).rationale_long))
    assert_scores_as_tuples(candidates, references)


def reference_meteor(candidate, reference):
    matches, chunks, _ = reference_min_chunks(candidate, reference)
    if matches == 0:
        return 0.0
    precision = matches / len(candidate)
    recall = matches / len(reference)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    return 100.0 * f_mean * (1.0 - 0.5 * (chunks / matches) ** 3)


def reference_rouge_l(candidate, reference):
    lcs = brute_force_lcs(candidate, reference)
    if lcs == 0:
        return 0.0
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    return 100.0 * 2.0 * precision * recall / (precision + recall)


@pytest.mark.parametrize("budget", [textmetrics.METEOR_BUDGET, 4])
def test_evaluate_explanations_on_identical_near_and_repeated_pairs(budget):
    """Identical pairs (one string, or two strings of one token list), a
    pair one token off and sentences repeated across pairs score as the
    references score them. Under a budget of 4 the 5-token identical
    pairs are past it: still searched, and counted inexact."""
    left = "The car turns left now."
    right = "the car turns right now"
    stop = "Stop for the cyclist ahead."
    stop_too = "stop for the cyclist, ahead"
    candidates = [left, left, right, stop, stop_too, "", left]
    references = [left, right, left, stop_too, stop, left, "wait"]
    cand_tokens = [tokenize(c) for c in candidates]
    ref_tokens = [tokenize(r) for r in references]
    pairs = list(zip(cand_tokens, ref_tokens))
    with mock.patch.object(textmetrics, "METEOR_BUDGET", budget):
        row = evaluate_explanations(candidates, references)
        meteor_score = sum(reference_meteor(c, r) for c, r in pairs) / len(pairs)
        inexact = sum(not reference_min_chunks(c, r)[2] for c, r in pairs)
    expected = TextEvalRow(
        bleu=tuple_bleu(cand_tokens, ref_tokens),
        meteor=meteor_score,
        rouge_l=sum(reference_rouge_l(c, r) for c, r in pairs) / len(pairs),
        cider=tuple_cider(cand_tokens, ref_tokens),
        meteor_inexact_pairs=inexact)
    assert repr(row) == repr(expected)
    assert inexact == (0 if budget == textmetrics.METEOR_BUDGET else 3)
