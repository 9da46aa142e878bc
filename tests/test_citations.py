import dataclasses
import math
import re
import sys
from typing import Iterable

import numpy as np
import pytest

from featgeo.bundled import default_sim_config_path
from featgeo.citations import (
    CitationParse,
    Sentence,
    VisibilityScores,
    _decode_group,
    citation_frequency,
    parse_citations,
    select_exemplars,
    visibility_scores,
)
from featgeo.engine.types import SourceDocument
from featgeo.errors import ValidationError
from featgeo.features import catalog_default
from featgeo.pipeline import RunConfig
from featgeo.sim import SimWorld, sim_answer

TWO_SENTENCE_ANSWER = "A is B [1][2]. C is D [3]."


def make_parse(specs, num_sources):
    """specs: list of (word_count, cited-iterable)."""
    sentences = tuple(
        Sentence(" ".join(["w"] * wc), wc, frozenset(cited), i + 1)
        for i, (wc, cited) in enumerate(specs)
    )
    return CitationParse(sentences, num_sources)


def test_parse_bracket_groups_before_terminal_mark():
    p = parse_citations(TWO_SENTENCE_ANSWER, 3)
    assert len(p.sentences) == 2
    assert p.sentences[0].cited == {1, 2}
    assert p.sentences[1].cited == {3}
    assert p.sentences[0].word_count == 3
    assert p.sentences[1].word_count == 3
    assert p.dropped_citations == 0


def test_parse_tolerates_comma_form():
    p = parse_citations("X [1, 2].", 3)
    assert len(p.sentences) == 1
    assert p.sentences[0].cited == {1, 2}


def test_parse_no_citations():
    p = parse_citations("No citations here.", 3)
    assert len(p.sentences) == 1
    assert p.sentences[0].cited == frozenset()
    assert p.sentences[0].word_count == 3


def test_parse_empty_answer_is_empty_not_error():
    assert parse_citations("", 4).sentences == ()
    assert parse_citations("   \n  ", 4).sentences == ()


def test_parse_attaches_groups_after_terminal_mark():
    p = parse_citations("A is B. [1] C is D. [2][3]", 3)
    assert len(p.sentences) == 2
    assert p.sentences[0].cited == {1}
    assert p.sentences[1].cited == {2, 3}


def test_parse_drops_out_of_range_indices_with_count():
    p = parse_citations("A is B [4]. C is D [2][9].", 3)
    assert p.sentences[0].cited == frozenset()
    assert p.sentences[1].cited == {2}
    assert p.dropped_citations == 2


def test_parse_excludes_markers_from_word_counts():
    with_marks = parse_citations("Alpha beta gamma [1][2][3].", 3)
    without = parse_citations("Alpha beta gamma.", 3)
    assert with_marks.sentences[0].word_count == without.sentences[0].word_count == 3


def test_parse_prose_brackets_are_not_citations():
    p = parse_citations("See [the appendix] for details [1].", 2)
    assert p.sentences[0].cited == {1}
    assert p.sentences[0].word_count == 5


def test_parse_positions_are_contiguous():
    p = parse_citations("One. Two! Three? Four.", 2)
    assert [s.position for s in p.sentences] == [1, 2, 3, 4]


def test_parse_unterminated_tail_is_a_sentence():
    p = parse_citations("First sentence. trailing words without a stop", 2)
    assert len(p.sentences) == 2
    assert p.sentences[1].word_count == 5


def test_parse_abbreviations_split_documented_limitation():
    p = parse_citations("Mr. Smith went home.", 1)
    assert len(p.sentences) == 2


def test_parse_requires_positive_num_sources():
    with pytest.raises(ValidationError):
        parse_citations("A.", 0)


# -- differential oracle: the char-by-char parser the regex scanner replaced ----
# Kept verbatim, except that index digits must be isdecimal(), not isdigit():
# int() rejects the 128 code points (such as "²") that are digits but not
# decimals, so the old parser crashed on them.


def _try_citation_token(text: str, start: int) -> tuple[list[int], int] | None:
    """Parse one ``[k]`` / ``[k, j, ...]`` token at ``start``; None if not one.

    Returns (indices, index past the closing bracket). Content must be digits
    separated by commas and/or spaces; anything else is treated as prose.
    """
    if start >= len(text) or text[start] != "[":
        return None
    i = start + 1
    indices: list[int] = []
    digits = ""
    while i < len(text):
        ch = text[i]
        if ch.isdecimal():
            digits += ch
        elif ch in ", \t":
            if digits:
                indices.append(int(digits))
                digits = ""
        elif ch == "]":
            if digits:
                indices.append(int(digits))
            return (indices, i + 1) if indices else None
        else:
            return None
        i += 1
    return None


_TERMINALS = ".!?"


def _word_count(text: str) -> int:
    """Whitespace tokens containing at least one alphanumeric character."""
    return sum(1 for tok in text.split() if any(ch.isalnum() for ch in tok))


def oracle_parse_citations(answer: str, num_sources: int) -> CitationParse:
    if num_sources < 1:
        raise ValidationError(f"num_sources must be >= 1, got {num_sources}")

    sentences: list[Sentence] = []
    dropped = 0
    chars: list[str] = []
    cites: set[int] = set()

    def add_indices(indices: Iterable[int]) -> None:
        nonlocal dropped
        for k in indices:
            if 1 <= k <= num_sources:
                cites.add(k)
            else:
                dropped += 1

    def flush() -> None:
        nonlocal chars, cites
        text = "".join(chars).strip()
        count = _word_count(text)
        if count >= 1:
            sentences.append(Sentence(text, count, frozenset(cites), len(sentences) + 1))
        chars = []
        cites = set()

    i = 0
    n = len(answer)
    while i < n:
        token = _try_citation_token(answer, i)
        if token is not None:
            add_indices(token[0])
            i = token[1]
            continue
        ch = answer[i]
        chars.append(ch)
        i += 1
        if ch in _TERMINALS:
            boundary = i >= n or answer[i].isspace() or _try_citation_token(answer, i) is not None
            if not boundary:
                continue
            # Trailing citation groups (whitespace-separated) belong to this sentence.
            j = i
            while True:
                while j < n and answer[j].isspace():
                    j += 1
                token = _try_citation_token(answer, j)
                if token is None:
                    break
                add_indices(token[0])
                j = token[1]
            i = j
            flush()
    flush()
    return CitationParse(tuple(sentences), num_sources, dropped)


# Fragments a random answer is drawn from: prose, terminal marks, bracket
# pieces, citation groups valid, empty, non-numeric and out of range, Unicode
# spaces and decimals, and digits that are not decimals.
_FRAGMENTS = (
    "Word", "abc", "x", "é", "_", "-", "'s", "1", "42", ".", ".", "!", "?", "...",
    "[", "]", ",", " ", " ", " ", "  ", "\t", "\n", "\n\n",
    "[1]", "[2]", "[3]", "[1][2]", "[1, 2]", "[ 2 ,3 ]", "[1\t3]", "[0]", "[4]", "[17]",
    "[007]", "[]", "[ ]", "[,]", "[a]", "[1a]", "[1.]", "[1\n]", "[[1]", "[1]]",
    "\u00a0", "\u2003", "\x1c", "\u0663", "\uff12", "[\u0663]", "[\uff12]", "\u00b2", "[\u00b2]",
    "[1\u00b2]", "[\u00a01]",
)


def random_answers(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        picks = rng.integers(0, len(_FRAGMENTS), size=int(rng.integers(0, 30)))
        yield "".join(_FRAGMENTS[i] for i in picks), int(rng.integers(1, 5))


def reference_visibility_scores(p: CitationParse) -> VisibilityScores:
    """The two-pass form that the one-pass ``visibility_scores`` replaced, kept verbatim."""
    n = p.num_sources
    if not p.sentences:
        zeros = tuple(0.0 for _ in range(n))
        return VisibilityScores(zeros, zeros, zeros)

    total_sentences = len(p.sentences)
    total_words = sum(s.word_count for s in p.sentences)
    decay_total = sum(
        s.word_count * math.exp(-s.position / total_sentences) for s in p.sentences
    )

    word = [0.0] * n
    pos = [0.0] * n
    for s in p.sentences:
        weight = s.word_count
        decayed = weight * math.exp(-s.position / total_sentences)
        for k in s.cited:
            word[k - 1] += weight
            pos[k - 1] += decayed
    word_pct = tuple(100.0 * (w / total_words) for w in word)
    pos_pct = tuple(100.0 * (d / decay_total) for d in pos)
    vis_pct = tuple((w + d) / 2.0 for w, d in zip(word_pct, pos_pct))
    return VisibilityScores(word_pct, pos_pct, vis_pct)


def test_parse_matches_the_char_by_char_oracle_on_random_answers():
    for answer, num_sources in random_answers(20_000, seed=4):
        expected = oracle_parse_citations(answer, num_sources)
        assert parse_citations(answer, num_sources) == expected, (answer, num_sources)
        assert visibility_scores(expected) == reference_visibility_scores(expected), (answer, num_sources)


def test_parse_and_visibility_match_their_references_bit_for_bit_on_sim_answers():
    """Engine-sized answers: 100 sim answers over each of 1, 3 and 6 sources, each parsed at 1, 3
    and 6 sources, so citations past the source count are dropped too. Scores compare with ==."""
    config = RunConfig.from_file(default_sim_config_path()).sim
    # The bundled topic has five competitors; a sixth source repeats the first one's latent vector.
    config = dataclasses.replace(config, competitor_vectors=config.competitor_vectors + config.competitor_vectors[:1])
    world = SimWorld(config, catalog_default())
    for doc_count in (1, 3, 6):
        docs = [SourceDocument(i, f"Source {i} on meal planning.") for i in range(1, doc_count + 1)]
        for i in range(100):
            answer = sim_answer(f"query {i} over {doc_count} sources?", docs, world, salt=str(i))
            for num_sources in (1, 3, 6):
                expected = oracle_parse_citations(answer, num_sources)
                assert parse_citations(answer, num_sources) == expected, (answer, num_sources)
                assert visibility_scores(expected) == reference_visibility_scores(expected), (answer, num_sources)


@pytest.mark.parametrize("order", [(3, 6), (6, 3)])
def test_the_citation_group_memo_is_keyed_by_the_source_count(order):
    answer = "A [2][5]. B [5]."
    expected = {3: ([{2}, set()], 2), 6: ([{2, 5}, {5}], 0)}
    _decode_group.cache_clear()
    for num_sources in order:
        p = parse_citations(answer, num_sources)
        assert ([s.cited for s in p.sentences], p.dropped_citations) == expected[num_sources]
        assert p == oracle_parse_citations(answer, num_sources)


def test_regex_classes_agree_with_the_str_predicates_on_every_code_point():
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    for pattern, predicate in ((r"\s", str.isspace), (r"[^\W_]", str.isalnum), (r"\d", str.isdecimal)):
        assert re.findall(pattern, text) == [ch for ch in text if predicate(ch)], pattern


def test_parse_treats_non_decimal_digits_in_brackets_as_prose():
    p = parse_citations("Sugar is bad [\u00b2].", 3)
    assert p == oracle_parse_citations("Sugar is bad [\u00b2].", 3)
    assert p.sentences == (Sentence("Sugar is bad [\u00b2].", 4, frozenset(), 1),)
    assert p.dropped_citations == 0
    assert parse_citations("Unicode decimals cite [\u0663][\uff12].", 3).sentences[0].cited == {2, 3}


def test_parse_drops_an_index_longer_than_int_conversion_allows():
    p = parse_citations("Big [" + "1" * 5000 + "]. Small [2].", 3)
    assert [s.cited for s in p.sentences] == [frozenset(), {2}]
    assert p.dropped_citations == 1
    assert parse_citations("Zero [" + "0" * 5000 + "].", 3).dropped_citations == 1
    # A nonzero digit far ahead of the last 640 still makes the index huge.
    assert parse_citations("Far [1" + "0" * 4999 + "2].", 3).dropped_citations == 1


def test_parse_long_index_with_leading_zeros_keeps_its_value():
    p = parse_citations("Padded [" + "0" * 5000 + "1]. Also [3, " + "\u0660" * 5000 + "2].", 3)
    assert [s.cited for s in p.sentences] == [{1}, {2, 3}]
    assert p.dropped_citations == 0


def test_visibility_single_sentence_full_citation():
    scores = visibility_scores(parse_citations("Only sentence here [1].", 2))
    assert scores.for_source(1) == (100.0, 100.0, 100.0)
    assert scores.for_source(2) == (0.0, 0.0, 0.0)


def test_visibility_two_equal_sentences_decay_formula():
    p = make_parse([(5, {1}), (5, set())], 1)
    scores = visibility_scores(p)
    word, pos, vis = scores.for_source(1)
    assert word == pytest.approx(50.0, abs=1e-12)
    expected_pos = 100 * math.exp(-0.5) / (math.exp(-0.5) + math.exp(-1.0))
    assert pos == pytest.approx(expected_pos, abs=1e-9)
    assert pos == pytest.approx(62.25, abs=0.01)
    assert vis == pytest.approx((50.0 + expected_pos) / 2, abs=1e-9)


def test_visibility_uncited_source_is_zero():
    p = make_parse([(4, {1}), (6, {1})], 3)
    assert visibility_scores(p).for_source(2) == (0.0, 0.0, 0.0)


def test_visibility_zero_sentences_all_zero():
    scores = visibility_scores(parse_citations("", 3))
    assert scores.word == scores.pos == scores.vis == (0.0, 0.0, 0.0)


def test_visibility_citing_every_sentence_yields_exactly_100():
    rng = np.random.default_rng(5)
    for _ in range(20):
        specs = [(int(rng.integers(1, 12)), {1}) for _ in range(int(rng.integers(1, 8)))]
        scores = visibility_scores(make_parse(specs, 2))
        assert scores.for_source(1) == (100.0, 100.0, 100.0)


def test_visibility_bounded_by_100():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n_sources = int(rng.integers(1, 5))
        specs = [
            (int(rng.integers(1, 15)),
             set(int(s) for s in rng.choice(n_sources, size=rng.integers(0, n_sources + 1), replace=False) + 1))
            for _ in range(int(rng.integers(1, 9)))
        ]
        scores = visibility_scores(make_parse(specs, n_sources))
        for s in range(1, n_sources + 1):
            word, pos, vis = scores.for_source(s)
            assert 0.0 <= word <= 100.0 + 1e-9
            assert 0.0 <= pos <= 100.0 + 1e-9
            assert 0.0 <= vis <= 100.0 + 1e-9


def test_word_metric_permutation_invariant_pos_not():
    specs = [(3, {1}), (9, set()), (5, {2})]
    reversed_specs = list(reversed(specs))
    a = visibility_scores(make_parse(specs, 2))
    b = visibility_scores(make_parse(reversed_specs, 2))
    assert a.word == b.word
    assert a.pos != b.pos


def test_moving_cited_sentence_earlier_never_decreases_pos():
    # swap a cited sentence with an uncited earlier sentence of equal length
    later = make_parse([(6, set()), (6, {1}), (4, set())], 1)
    earlier = make_parse([(6, {1}), (6, set()), (4, set())], 1)
    assert visibility_scores(earlier).for_source(1)[1] >= visibility_scores(later).for_source(1)[1]


def test_frequency_counts_answers_not_occurrences():
    parses = [
        parse_citations("A [1]. B [1]. C [1].", 3),  # cited three times within one answer
        parse_citations("D [1][2].", 3),
        parse_citations("E [2].", 3),
        parse_citations("F.", 3),
        parse_citations("G [1].", 3),
    ]
    assert citation_frequency(parses) == {1: 3, 2: 2, 3: 0}


def test_frequency_empty_list():
    assert citation_frequency([]) == {}


def test_frequency_matches_brute_force_indicator_sum():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n_sources = int(rng.integers(1, 6))
        parses = []
        for _ in range(int(rng.integers(0, 10))):
            specs = [
                (int(rng.integers(1, 9)),
                 set(int(s) for s in rng.choice(n_sources, size=rng.integers(0, n_sources + 1), replace=False) + 1))
                for _ in range(int(rng.integers(1, 6)))
            ]
            parses.append(make_parse(specs, n_sources))
        if not parses:
            continue
        frequencies = citation_frequency(parses)
        for s in range(1, n_sources + 1):
            brute = sum(1 for p in parses if any(s in sent.cited for sent in p.sentences))
            assert frequencies[s] == brute


def test_select_exemplars_tie_breaks_by_smaller_id():
    frequencies = citation_frequency(
        [make_parse([(3, {1, 2})], 3), make_parse([(3, {1, 2})], 3),
         make_parse([(3, {1, 2, 3})], 3)]
    )
    assert frequencies == {1: 3, 2: 3, 3: 1}
    assert select_exemplars(frequencies, 2) == [1, 2]


def test_select_exemplars_skips_uncited_sources():
    frequencies = citation_frequency([make_parse([(3, set())], 4)])
    assert select_exemplars(frequencies, 3) == []


def test_select_exemplars_truncates_like_sorting_oracle():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        freqs = {s: int(rng.integers(0, 5)) for s in range(1, n + 1)}
        k = int(rng.integers(1, 10))
        oracle = [s for s, f in sorted(freqs.items(), key=lambda kv: (-kv[1], kv[0])) if f >= 1][:k]
        assert select_exemplars(freqs, k) == oracle
