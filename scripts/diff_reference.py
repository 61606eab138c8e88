"""Differential verification against the ACTUAL reference binary.

Builds a tiny Rust harness (/tmp/ta_diff) linking the reference crate
(compiled with native SIMD), feeds it seeded random cases across every
operator family, and compares bit-for-bit with our kernels. This is the
reference's own SIMD==scalar bench discipline, extended across
implementations.

Usage: python scripts/diff_reference.py [n_cases_scale]
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

from triple_accel_ray.kernels import (  # noqa: E402
    EditCosts,
    LEVENSHTEIN_COSTS,
    RDAMERAU_COSTS,
    hamming,
    levenshtein,
    levenshtein_exp,
    levenshtein_search_simd_with_opts,
    hamming_search_naive_with_opts,
    levenshtein_simd_k,
    levenshtein_simd_k_with_opts,
    rdamerau,
)

BIN = "/tmp/ta_diff/target/release/ta_diff"


def rand_str(rng, n):
    return bytes(rng.randrange(0, 256) for _ in range(n))


def rand_text(rng, n):
    return bytes(rng.randrange(33, 127) for _ in range(n))


def mutate(rng, s, k):
    b = bytearray(s)
    for _ in range(rng.randrange(0, k + 1)):
        op = rng.randrange(4)
        if op == 0 and b:
            b[rng.randrange(len(b))] = rng.randrange(33, 127)
        elif op == 1:
            b.insert(rng.randrange(len(b) + 1), rng.randrange(33, 127))
        elif op == 2 and b:
            del b[rng.randrange(len(b))]
        elif len(b) > 1:
            i = rng.randrange(len(b) - 1)
            b[i], b[i + 1] = b[i + 1], b[i]
    return bytes(b)


def rand_costs(rng, for_search=False):
    while True:
        mis = rng.randrange(1, 5)
        gap = rng.randrange(1, 5)
        sg = rng.randrange(0, 4)
        tc = rng.choice([None, rng.randrange(1, 5)])
        try:
            c = EditCosts(mis, gap, sg, tc)
            if for_search:
                c.check_search()
            return c
        except ValueError:
            continue


def main():
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    rng = random.Random(987)
    lines = []
    expected = []  # (tag, callable producing our value as string)

    def fmt_c(c):
        return f"{c.mismatch_cost}\t{c.gap_cost}\t{c.start_gap_cost}\t{-1 if c.transpose_cost is None else c.transpose_cost}"

    # pairwise distances (arbitrary bytes incl. NULs)
    for _ in range(600 * scale):
        a = rand_str(rng, rng.randrange(0, 80))
        b = mutate(rng, a, 10) if rng.random() < 0.6 else rand_str(rng, rng.randrange(0, 80))
        lines.append(f"lev\t{a.hex() or '-'}\t{b.hex() or '-'}")
        expected.append(("lev", str(levenshtein(a, b))))
        lines.append(f"rdam\t{a.hex() or '-'}\t{b.hex() or '-'}")
        expected.append(("rdam", str(rdamerau(a, b))))
        lines.append(f"lev_exp\t{a.hex() or '-'}\t{b.hex() or '-'}")
        expected.append(("lev_exp", str(levenshtein_exp(a, b))))
        k = rng.randrange(0, 30)
        lines.append(f"lev_k\t{a.hex() or '-'}\t{b.hex() or '-'}\t{k}")
        r = levenshtein_simd_k(a, b, k)
        expected.append(("lev_k", "none" if r is None else str(r)))

    # hamming (equal lengths)
    for _ in range(300 * scale):
        n = rng.randrange(0, 120)
        a = rand_str(rng, n)
        b = bytearray(a)
        for _ in range(rng.randrange(0, 8)):
            if b:
                b[rng.randrange(len(b))] = rng.randrange(0, 256)
        b = bytes(b)
        lines.append(f"ham\t{a.hex() or '-'}\t{b.hex() or '-'}")
        expected.append(("ham", str(hamming(a, b))))

    # k-bounded with random cost models
    for _ in range(400 * scale):
        c = rand_costs(rng)
        a = rand_text(rng, rng.randrange(0, 50))
        b = mutate(rng, a, 8)
        k = rng.randrange(0, 40)
        lines.append(f"lev_k_costs\t{a.hex() or '-'}\t{b.hex() or '-'}\t{k}\t{fmt_c(c)}")
        r = levenshtein_simd_k_with_opts(a, b, k, False, c)
        expected.append(("lev_k_costs", "none" if r is None else str(r[0])))

    # tracebacks (unit + rdamerau costs — the reference-test cost models)
    for _ in range(200 * scale):
        c = rng.choice([LEVENSHTEIN_COSTS, RDAMERAU_COSTS])
        a = rand_text(rng, rng.randrange(0, 30))
        b = mutate(rng, a, 5)
        k = rng.randrange(5, 40)
        lines.append(f"trace\t{a.hex() or '-'}\t{b.hex() or '-'}\t{k}\t{fmt_c(c)}")
        r = levenshtein_simd_k_with_opts(a, b, k, True, c)
        if r is None:
            expected.append(("trace", "none"))
        else:
            tr = ",".join(f"{e.edit}:{e.count}" for e in r[1])
            expected.append(("trace", f"{r[0]}|{tr}"))

    # searches
    for _ in range(300 * scale):
        for_costs = rand_costs(rng, for_search=True)
        nlen = rng.randrange(1, 12)
        hlen = rng.randrange(0, 80)
        needle = rand_text(rng, nlen)
        hay = bytearray(rand_text(rng, hlen))
        if hlen > nlen and rng.random() < 0.7:
            p0 = rng.randrange(0, hlen - nlen)
            rep = mutate(rng, needle, 2)
            hay[p0 : p0 + min(len(rep), hlen - p0)] = rep[: hlen - p0]
        hay = bytes(hay)
        k = rng.randrange(0, 6)
        st = rng.choice(["all", "best"])
        anchored = rng.random() < 0.3
        lines.append(
            f"search_lev\t{needle.hex() or '-'}\t{hay.hex() or '-'}\t{k}\t{st}\t{1 if anchored else 0}\t{fmt_c(for_costs)}"
        )
        ours = levenshtein_search_simd_with_opts(
            needle, hay, k, st, for_costs, anchored
        )
        expected.append(
            ("search_lev", ";".join(f"{m.start}-{m.end}-{m.k}" for m in ours))
        )

        if nlen <= hlen:
            kh = rng.randrange(0, 5)
            lines.append(f"search_ham\t{needle.hex() or '-'}\t{hay.hex() or '-'}\t{kh}\t{st}")
            oh = hamming_search_naive_with_opts(needle, hay, kh, st)
            expected.append(
                ("search_ham", ";".join(f"{m.start}-{m.end}-{m.k}" for m in oh))
            )

    proc = subprocess.run(
        [BIN], input="\n".join(lines) + "\n", capture_output=True, text=True
    )
    got = proc.stdout.splitlines()
    assert len(got) == len(expected), (len(got), len(expected), proc.stderr[-500:])

    # arbitrate SIMD-path mismatches against the reference's NAIVE path:
    # the reference's SIMD and naive implementations disagree on a handful
    # of edge cases (rdamerau band boundaries, anchored/position-0 search
    # matches); the naive path is the documented semantics and the one our
    # engine matches.
    NAIVE_OP = {"rdam": "rdam_naive", "trace": "trace_naive",
                "search_lev": "search_lev_naive",
                "lev_k_costs": "lev_k_costs_naive"}

    def naive_answer(line: str, tag: str):
        op = NAIVE_OP.get(tag)
        if op is None:
            return None
        parts = line.split("\t")
        parts[0] = op
        r = subprocess.run(
            [BIN], input="\t".join(parts) + "\n", capture_output=True,
            text=True,
        )
        outs = r.stdout.splitlines()
        return outs[0] if outs else ""

    bad = 0
    simd_divergences = 0
    by_op: dict = {}
    for line, (tag, want), g in zip(lines, expected, got):
        by_op.setdefault(tag, [0, 0])
        by_op[tag][1] += 1
        if g != want:
            nv = naive_answer(line, tag)
            if nv is not None and nv == want:
                simd_divergences += 1
                continue  # we match the reference's naive semantics
            bad += 1
            by_op[tag][0] += 1
            if bad <= 10:
                print(f"MISMATCH [{tag}] {line[:120]}\n  reference={g}\n  naive    ={nv}\n  ours     ={want}")
    for tag, (b, t) in sorted(by_op.items()):
        print(f"{tag}: {t - b}/{t} match")
    print(
        f"\nTOTAL: {len(expected) - bad}/{len(expected)} match, {bad} true "
        f"mismatches ({simd_divergences} cases where the reference's own "
        "SIMD and naive paths disagree and we match the naive semantics)"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
