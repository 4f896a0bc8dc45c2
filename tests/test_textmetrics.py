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
from vecdrive.simgen import GenSpec, generate
from vecdrive.textmetrics import (
    _min_chunks,
    bleu,
    cider,
    lcs_length,
    meteor,
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

def test_bleu_identity_is_100():
    corpus = [["the", "car", "turns", "left", "now"]]
    assert bleu(corpus, corpus) == pytest.approx(100.0, abs=1e-6)


def test_bleu_repeated_token_hand_value():
    cand = [["the", "the", "the", "the"]]
    ref = [["the", "cat", "sat", "down"]]
    # Clipped precisions: p1 = 1/4; p2, p3, p4 have zero matches -> eps.
    eps = 1e-9
    expected = 100.0 * math.exp(
        0.25 * (math.log(0.25) + 3 * math.log(eps))
    )  # brevity penalty 1 since c == r
    assert bleu(cand, ref) == pytest.approx(expected, rel=1e-9)


def test_bleu_empty_candidate_is_zero():
    assert bleu([[]], [["a", "b", "c", "d"]]) == 0.0


def test_bleu_brevity_penalty():
    cand = [["a", "b"]]
    ref = [["a", "b", "c", "d"]]
    # p1 = 1, p2 = 1, p3 = p4 = eps (no trigrams in candidate).
    eps = 1e-9
    expected = 100.0 * math.exp(1 - 4 / 2) * math.exp(0.25 * (2 * math.log(eps)))
    assert bleu(cand, ref) == pytest.approx(expected, rel=1e-9)


def test_bleu_is_corpus_level_not_mean_of_sentences():
    # Corpus statistics pool n-gram counts before dividing.
    cands = [["a", "a"], ["b", "c", "d", "e"]]
    refs = [["a", "x"], ["b", "c", "d", "e"]]
    p1 = (1 + 4) / (2 + 4)
    p2 = (0 + 3) / (1 + 3)
    p3 = (0 + 2) / (0 + 2)
    p4 = (0 + 1) / (0 + 1)
    expected = 100.0 * math.exp(sum(0.25 * math.log(p) for p in (p1, p2, p3, p4)))
    assert bleu(cands, refs) == pytest.approx(expected, rel=1e-12)


def test_bleu_permutation_equivariant():
    cands = [["a", "b", "c", "d"], ["e", "f", "g", "h"], ["i", "j", "k", "l"]]
    refs = [["a", "b", "x", "d"], ["e", "f", "g", "h"], ["i", "z", "k", "l"]]
    assert bleu(cands, refs) == pytest.approx(
        bleu(list(reversed(cands)), list(reversed(refs))), abs=1e-12
    )


def test_bleu_rejects_mismatched_or_empty():
    with pytest.raises(ValueError):
        bleu([["a"]], [])
    with pytest.raises(ValueError):
        bleu([], [])


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


def test_meteor_on_reversed_and_shuffled_candidates_is_bounded():
    rng = random.Random(6)
    texts = [t for t in long_rationales(7) if len(t) >= 60][:2]
    texts += [[rng.choice(vocab) for _ in range(60)] for vocab in ("ab", "abc")]
    slow = []
    for length in range(14, 61):
        for text in texts:
            ref = text[:length]
            for cand in (ref[::-1], rng.sample(ref, length)):
                if not best_of_3_under_50_ms(cand, ref):
                    slow.append((length, " ".join(cand)))
    assert slow == []


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

def test_cider_two_distinct_identical_pairs():
    corpus = [["red", "car", "ahead", "now"], ["blue", "bike", "left", "side"]]
    assert cider(corpus, corpus) == pytest.approx(10.0, abs=1e-9)


def test_cider_no_shared_ngram_is_zero():
    cands = [["x", "y", "z", "w"], ["p", "q", "r", "s"]]
    refs = [["a", "b", "c", "d"], ["e", "f", "g", "h"]]
    assert cider(cands, refs) == 0.0


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
    assert cider(cands, refs) == pytest.approx(hand_cider_three_pairs(cands, refs), abs=1e-12)


def test_cider_permutation_equivariant():
    cands = [["a", "b", "c", "d"], ["e", "f", "g", "h"], ["a", "b", "x", "y"]]
    refs = [["a", "b", "c", "e"], ["e", "f", "g", "h"], ["a", "b", "x", "z"]]
    perm = [2, 0, 1]
    assert cider(cands, refs) == pytest.approx(
        cider([cands[i] for i in perm], [refs[i] for i in perm]), abs=1e-12
    )


def test_cider_rejects_empty_or_mismatched():
    with pytest.raises(ValueError):
        cider([], [])
    with pytest.raises(ValueError):
        cider([["a"]], [["a"], ["b"]])
