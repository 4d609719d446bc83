"""pf_analyzer: semantic invariant checker for the pufferfish engine.

Four semantic passes (budget-flow, determinism, lock-order, no-throw)
over a frontend-neutral IR, plus the line-regex text rules. Two frontends
lower C++ into the IR: libclang (clang.cindex, used in CI with real
compile flags) and a builtin tokenizer/structural parser (zero
dependencies, used everywhere else and via --regex-only hosts without any
parse at all).

Run as `python3 tools/pf_analyzer` — see cli.py for flags.
"""
