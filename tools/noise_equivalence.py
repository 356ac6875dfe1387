#!/usr/bin/env python3
"""Statistical-equivalence study for changes that alter the simulator's noise.

A change to how receiver noise is generated (or where in the chain it is
added) moves every noise-limited figure point by chance, so bit-identity with
the previous engine is no longer the test. This script builds a base revision
and a head source tree side by side, runs the paper's noise-limited figure
benches on both, and checks that each BER/BLER point of either engine falls
inside the other's 95% Wilson binomial band:

  bench_fig08_ber_overlay   BER vs distance and power (paper Fig. 8); the
                            trials are the payload bits of each rate.
  bench_rds_range           RDS BLER vs distance (32 blocks per point).
                            RT-ok columns are one trial each: reported only.
  bench_fig07_snr_distance  SNR of a 1 kHz tone (paper Fig. 7). There is no
                            binomial count, so a point passes when the two
                            engines agree within SNR_TOLERANCE_DB.

It then re-runs `bench_fleet_capacity --calibrate` on both builds and prints
the fitted analytic-FSK constants next to the ones pinned in
rx/analytic_fsk.cpp, with the shift of each fit at the middle of its
waterfall. A shift above CALIBRATION_MOVE_DB is reported as a real move.

Usage (from anywhere inside the repository):

    tools/noise_equivalence.py --base HEAD~1 --workdir /tmp/noise-study
    tools/noise_equivalence.py --base-build OLD/build --head-build NEW/build

--head defaults to the working tree. Builds are Release with SIMD on, out of
source under --workdir, and only the four bench targets are built; pass
--base-build / --head-build to reuse existing build directories instead.
Exit status: 0 when every gated point passes, 1 otherwise.
"""

import argparse
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHES = ["bench_fig07_snr_distance", "bench_fig08_ber_overlay",
           "bench_rds_range", "bench_fleet_capacity"]
Z95 = 1.959963984540054
SNR_TOLERANCE_DB = 2.0
CALIBRATION_MOVE_DB = 1.0
# Trials behind one table cell, by table title prefix and column suffix.
FIG08_BITS = {"Fig 8a": 200, "Fig 8b": 640, "Fig 8c": 960}
RDS_BLOCKS = 32  # 8 RadioText groups x 4 blocks


def run(cmd):
    return subprocess.run(cmd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout


def build(src, build_dir, jobs):
    run(["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
         "-DFMBS_SIMD=ON"])
    run(["cmake", "--build", build_dir, "-j", str(jobs), "--target"] + BENCHES)
    return build_dir


def export_revision(rev, dest):
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return dest


def parse_tables(text):
    """{title: (columns, [(x, [values])])} from print_table output."""
    tables = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        m = re.match(r"== (.*) ==$", lines[i].strip())
        if not m or i + 1 >= len(lines):
            i += 1
            continue
        # Column names may hold single spaces ("phone BLER").
        columns = re.split(r"\s{2,}", lines[i + 1].strip())[1:]
        rows = []
        i += 2
        while i < len(lines) and lines[i].strip():
            fields = lines[i].split()
            try:
                values = [float(v) for v in fields]
            except ValueError:
                break
            rows.append((values[0], values[1:]))
            i += 1
        tables[m.group(1)] = (columns, rows)
    return tables


def wilson(p, n):
    denom = 1.0 + Z95 * Z95 / n
    center = (p + Z95 * Z95 / (2 * n)) / denom
    half = Z95 / denom * math.sqrt(p * (1 - p) / n + Z95 * Z95 / (4 * n * n))
    return center - half, center + half


def trials_for(title, column):
    for prefix, bits in FIG08_BITS.items():
        if title.startswith(prefix):
            return bits
    if column.endswith("BLER"):
        return RDS_BLOCKS
    return None


def compare_bench(name, base_out, head_out):
    """Prints every point; returns (gated points, failures)."""
    base_tables, head_tables = parse_tables(base_out), parse_tables(head_out)
    gated = failures = 0
    for title, (columns, base_rows) in base_tables.items():
        _, head_rows = head_tables[title]
        print(f"\n{name}: {title}")
        for (x, bvals), (_, hvals) in zip(base_rows, head_rows):
            for col, b, h in zip(columns, bvals, hvals):
                n = trials_for(title, col)
                if name == "bench_fig07_snr_distance":
                    ok = abs(h - b) <= SNR_TOLERANCE_DB
                    band = f"|d| <= {SNR_TOLERANCE_DB} dB"
                elif n is None:
                    print(f"  x={x:<8g} {col:<12} base={b:<8.4f} head={h:<8.4f}"
                          "  (one trial: reported only)")
                    continue
                else:
                    lo_b, hi_b = wilson(b, n)
                    lo_h, hi_h = wilson(h, n)
                    ok = lo_b <= h <= hi_b and lo_h <= b <= hi_h
                    band = (f"n={n} base band [{lo_b:.4f}, {hi_b:.4f}] "
                            f"head band [{lo_h:.4f}, {hi_h:.4f}]")
                gated += 1
                if not ok:
                    failures += 1
                if ok and b == h:
                    continue  # identical points are counted, not listed
                print(f"  x={x:<8g} {col:<12} base={b:<8.4f} head={h:<8.4f}"
                      f"  {band}  {'ok' if ok else 'OUTSIDE'}")
    return gated, failures


def parse_calibration(text):
    """{rate: (offset_db, slope, floor, pinned tuple, waterfall snrs)}."""
    fits = {}
    rate = None
    waterfall = []
    for line in text.splitlines():
        m = re.match(r"\s+(k\d+bps):$", line)
        if m:
            rate, waterfall = m.group(1), []
            continue
        m = re.match(r"\s+snr=(\S+)dB ber=(\S+)$", line)
        if m and rate:
            snr, ber = float(m.group(1)), float(m.group(2))
            if 0.0 < ber < 0.4:
                waterfall.append(snr)
            continue
        m = re.search(r"gamma_offset_db=(\S+) gamma_slope=(\S+) ber_floor=(\S+)"
                      r"\s+\[pinned: (\S+), (\S+), (\S+)\]", line)
        if m and rate:
            v = [float(g) for g in m.groups()]
            fits[rate] = (v[0], v[1], v[2], tuple(v[3:]), waterfall)
    return fits


def compare_calibration(base_out, head_out):
    base, head = parse_calibration(base_out), parse_calibration(head_out)
    moved = []
    print("\nbench_fleet_capacity --calibrate "
          "(gamma_offset_db, gamma_slope, ber_floor)")
    for rate, (bo, bs, bf, pinned, wf) in base.items():
        ho, hs, hf, _, hwf = head[rate]
        points = wf + hwf
        snr_mid = sum(points) / len(points) if points else 0.0
        shift = (ho + hs * snr_mid) - (bo + bs * snr_mid)
        real = abs(shift) > CALIBRATION_MOVE_DB
        if real:
            moved.append(rate)
        print(f"  {rate}: pinned {pinned}  base ({bo:.5g}, {bs:.5g}, {bf:.5g})"
              f"  head ({ho:.5g}, {hs:.5g}, {hf:.5g})")
        print(f"    head - base fit at snr={snr_mid:.1f} dB: {shift:+.2f} dB "
              f"gamma ({'REAL MOVE' if real else 'within'} "
              f"{CALIBRATION_MOVE_DB} dB)")
    return moved


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD",
                    help="git revision of the reference engine (default HEAD)")
    ap.add_argument("--head", default=ROOT,
                    help="source tree of the new engine (default: work tree)")
    ap.add_argument("--workdir", default=os.path.join(ROOT, "build-noise-study"))
    ap.add_argument("--base-build", help="reuse this build of the base")
    ap.add_argument("--head-build", help="reuse this build of the head")
    ap.add_argument("--jobs", type=int, default=2)
    args = ap.parse_args()

    base_build = args.base_build or build(
        export_revision(args.base, os.path.join(args.workdir, "base-src")),
        os.path.join(args.workdir, "base-build"), args.jobs)
    head_build = args.head_build or build(
        args.head, os.path.join(args.workdir, "head-build"), args.jobs)

    gated = failures = 0
    for bench in BENCHES[:3]:
        outs = [run([os.path.join(b, bench)]) for b in (base_build, head_build)]
        g, f = compare_bench(bench, *outs)
        gated += g
        failures += f
    outs = [run([os.path.join(b, "bench_fleet_capacity"), "--calibrate"])
            for b in (base_build, head_build)]
    moved = compare_calibration(*outs)
    print(f"\n{gated - failures}/{gated} gated points inside the other "
          f"engine's band; calibration moved for: {', '.join(moved) or 'none'}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
