"""Inline-citation parsing and per-source visibility metrics.

Answers cite sources with bracketed 1-based indices (``[1]``, ``[2][3]``).
This module splits an answer into sentences, attaches citation groups to the
sentence they terminate, and scores each source by the share of answer words
(optionally position-discounted) its cited sentences cover.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import ValidationError

# Over every code point, \s, [^\W_] and \d agree with str.isspace,
# str.isalnum and str.isdecimal, which define whitespace, words and indices.
# A citation token: decimal indices separated by commas, spaces or tabs.
_TOKEN = re.compile(r"\[([ ,\t]*\d[\d, \t]*)\]")
# A sentence end: a terminal mark followed by whitespace, the end of the text
# or a token, with the trailing citation groups and whitespace that belong to
# the sentence it ends. Tokens hold no terminal mark, so none straddles an end.
_SENTENCE_END = re.compile(rf"[.!?](?=\s|\Z|{_TOKEN.pattern})(?:\s*{_TOKEN.pattern})*\s*")
_INDEX = re.compile(r"\d+")
_ALNUM = re.compile(r"[^\W_]")
# int() converts at most sys.get_int_max_str_digits() digits, never fewer than
# 640; a longer index is out of range unless it is mostly leading zeros.
_INT_DIGITS = 640


class Sentence(NamedTuple):
    """One parsed sentence with its cited source indices."""

    text: str
    word_count: int
    cited: frozenset[int]
    position: int


@dataclass(frozen=True)
class CitationParse:
    """An answer decomposed into sentences plus per-sentence citations."""

    sentences: tuple[Sentence, ...]
    num_sources: int
    dropped_citations: int = 0

    def cited_anywhere(self) -> frozenset[int]:
        out: set[int] = set()
        for s in self.sentences:
            out |= s.cited
        return frozenset(out)


@dataclass(frozen=True)
class VisibilityScores:
    """Per-source word, position-weighted, and combined scores, as percents."""

    word: tuple[float, ...]
    pos: tuple[float, ...]
    vis: tuple[float, ...]

    def for_source(self, source_id: int) -> tuple[float, float, float]:
        i = source_id - 1
        return self.word[i], self.pos[i], self.vis[i]


@lru_cache(maxsize=1024)
def _decode_group(group: str, num_sources: int) -> tuple[frozenset[int], int]:
    """The in-range indices of a sentence's comma-joined citation tokens, and how many were dropped.

    Answers cite few distinct groups, so nearly every sentence's group is a memo hit.
    """
    cites: set[int] = set()
    dropped = 0
    for digits in _INDEX.findall(group):
        if len(digits) > _INT_DIGITS:  # leading zeros keep the value; else it reads as 0
            digits = "0" if any(map(int, digits[:-_INT_DIGITS])) else digits[-_INT_DIGITS:]
        k = int(digits)
        if 1 <= k <= num_sources:
            cites.add(k)
        else:
            dropped += 1
    return frozenset(cites), dropped


def parse_citations(answer: str, num_sources: int) -> CitationParse:
    """Split an answer into sentences and attach bracketed citations.

    Sentences end at terminal punctuation (., !, ?) followed by whitespace,
    end of text, or a citation token. Citation groups adjacent to a boundary
    (before or after the terminal mark) attach to that sentence; indices
    outside 1..num_sources are dropped and counted. Citation markers never
    contribute to word counts. Abbreviations are not special-cased.
    """
    if num_sources < 1:
        raise ValidationError(f"num_sources must be >= 1, got {num_sources}")

    sentences: list[Sentence] = []
    dropped = 0
    start = 0
    for end in [m.end() for m in _SENTENCE_END.finditer(answer)] + [len(answer)]:
        # Text and token indices alternate: text, indices, text, ..., text.
        pieces = _TOKEN.split(answer[start:end])
        start = end
        cited, group_dropped = _decode_group(",".join(pieces[1::2]), num_sources)
        dropped += group_dropped
        text = "".join(pieces[::2]).strip()
        # Words are whitespace-delimited runs holding at least one alphanumeric.
        count = len([w for w in text.split() if w.isalnum() or _ALNUM.search(w)])
        if count >= 1:
            sentences.append(Sentence(text, count, cited, len(sentences) + 1))
    return CitationParse(tuple(sentences), num_sources, dropped)


def visibility_scores(p: CitationParse) -> VisibilityScores:
    """Word-share and exponentially position-discounted citation scores.

    A sentence citing several sources contributes its full weight to each of
    them. With zero sentences every score is 0.
    """
    n = p.num_sources
    if not p.sentences:
        zeros = tuple(0.0 for _ in range(n))
        return VisibilityScores(zeros, zeros, zeros)

    total_sentences = len(p.sentences)
    total_words = sum(s.word_count for s in p.sentences)
    decayed = [s.word_count * math.exp(-s.position / total_sentences) for s in p.sentences]
    decay_total = sum(decayed)

    word = [0.0] * n
    pos = [0.0] * n
    for s, d in zip(p.sentences, decayed):
        for k in s.cited:
            word[k - 1] += s.word_count
            pos[k - 1] += d
    # Divide before scaling so a source citing every sentence lands on exactly 100.
    word_pct = tuple(100.0 * (w / total_words) for w in word)
    pos_pct = tuple(100.0 * (d / decay_total) for d in pos)
    vis_pct = tuple((w + d) / 2.0 for w, d in zip(word_pct, pos_pct))
    return VisibilityScores(word_pct, pos_pct, vis_pct)


def citation_frequency(parses: Sequence[CitationParse]) -> dict[int, int]:
    """Per source id, in how many answers it was cited at least once (indicator counting).

    The parses share one source count: they answer queries over one document set.
    """
    num_sources = parses[0].num_sources if parses else 0
    frequencies = {s: 0 for s in range(1, num_sources + 1)}
    for p in parses:
        for s in p.cited_anywhere():
            frequencies[s] += 1
    return frequencies


def select_exemplars(frequencies: dict[int, int], k: int) -> list[int]:
    """Top-k source ids by citation frequency; ties break toward smaller id.

    Sources never cited are excluded, so fewer than k ids may come back.
    """
    cited = [(s, f) for s, f in frequencies.items() if f >= 1]
    cited.sort(key=lambda item: (-item[1], item[0]))
    return [s for s, _ in cited[:k]]
