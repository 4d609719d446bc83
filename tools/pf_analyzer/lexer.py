"""A small C++ tokenizer for the builtin (non-libclang) frontend.

Produces (kind, text, line) tokens with comments and literals collapsed:
string/char literals become a single 'str' token (their contents never
matter to the passes), comments disappear entirely — but `pf:allow(...)`
markers inside comments are collected per line, since they are the
analyzer's suppression mechanism.
"""

import re
from typing import Dict, List, Set, Tuple

ALLOW_RE = re.compile(r"pf:allow\(([a-z0-9_-]+)\)")

# Token kinds: 'id', 'num', 'str', 'punct'.
Token = Tuple[str, str, int]

_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_ID_CONT = _ID_START | set("0123456789")
_DIGITS = set("0123456789")

# Multi-char operators that matter for token-level pattern matching.
_PUNCT3 = ("->*", "<<=", ">>=", "...", "<=>")
_PUNCT2 = (
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&",
    "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
)


def tokenize(text: str):
    """Returns (tokens, allows) where allows maps line -> set of rule names
    exempted on that line via pf:allow markers."""
    tokens: List[Token] = []
    allows: Dict[int, Set[str]] = {}
    i, n, line = 0, len(text), 1

    def note_allows(chunk: str, at_line: int):
        for m in ALLOW_RE.finditer(chunk):
            allows.setdefault(at_line, set()).add(m.group(1))

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        # Comments (collect allow markers, then skip).
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j < 0:
                j = n
            note_allows(text[i:j], line)
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                j = n
            else:
                j += 2
            chunk = text[i:j]
            # Markers inside a block comment apply to the line they sit on.
            at = line
            for part in chunk.split("\n"):
                note_allows(part, at)
                at += 1
            line += chunk.count("\n")
            i = j
            continue
        # Raw strings: R"delim( ... )delim".
        if c == "R" and text[i : i + 2] == 'R"':
            m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                if j < 0:
                    j = n
                else:
                    j += len(close)
                line += text.count("\n", i, j)
                tokens.append(("str", '""', line))
                i = j
                continue
        # String / char literals.
        if c == '"' or c == "'":
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == c:
                    j += 1
                    break
                if text[j] == "\n":  # Unterminated; bail at EOL.
                    break
                j += 1
            tokens.append(("str", '""' if c == '"' else "''", line))
            i = j
            continue
        # Preprocessor lines: keep as one 'pp' token (continuations folded).
        if c == "#" and (not tokens or tokens[-1][2] != line):
            j = i
            while j < n:
                k = text.find("\n", j)
                if k < 0:
                    k = n
                if text[k - 1 : k] == "\\" and k < n:
                    j = k + 1
                    line += 1
                    continue
                j = k
                break
            tokens.append(("pp", text[i:j], line))
            line += text.count("\n", i, j)
            i = j
            continue
        if c in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            tokens.append(("id", text[i:j], line))
            i = j
            continue
        if c in _DIGITS or (c == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i + 1
            while j < n and (text[j] in _ID_CONT or text[j] in ".'+-"):
                # The +- only continues an exponent (1e-5); otherwise stop.
                if text[j] in "+-" and text[j - 1] not in "eEpP":
                    break
                j += 1
            tokens.append(("num", text[i:j], line))
            i = j
            continue
        matched = False
        for group in (_PUNCT3, _PUNCT2):
            for p in group:
                if text.startswith(p, i):
                    tokens.append(("punct", p, line))
                    i += len(p)
                    matched = True
                    break
            if matched:
                break
        if matched:
            continue
        tokens.append(("punct", c, line))
        i += 1

    return tokens, allows
