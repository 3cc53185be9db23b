#!/usr/bin/env bash
# The console script end to end: every subcommand on a synthetic series,
# and the input errors that must exit 1 with a message, not a traceback.
#
#     bash -e .github/cli_end_to_end.sh
#
# Needs a `hurstscan` console script and a `python` that imports
# hurstscan, as `pip install -e .` provides.  Runs in a fresh temporary
# directory.
cd "$(mktemp -d)"
hurstscan synth --kind fgn --n 2000 --h 0.6 --out fgn.csv
hurstscan analyze fgn.csv --returns
hurstscan analyze fgn.csv --returns --q=-2 --q=2 --q=4
# an output name with a directory part, a date past 9999-12-31 and a
# contradictory switch pair each exit 1 with a message
status=0
hurstscan synth --kind fgn --n 100 --h 0.6 --out ../escaped.csv || status=$?
test "$status" -eq 1
test ! -e ../escaped.csv
status=0
hurstscan synth --kind gaussian-white --n 1000 --start-date 9999-12-01 2> late.err || status=$?
test "$status" -eq 1
if grep -q Traceback late.err; then exit 1; fi
status=0
hurstscan analyze fgn.csv --returns --garch --no-garch || status=$?
test "$status" -eq 1
# an fgn series without --h exits 1 naming the missing parameter, and
# writes nothing
status=0
hurstscan synth --kind fgn --n 100 --out-dir noh 2> noh.err || status=$?
test "$status" -eq 1
grep -q "fgn requires hurst" noh.err
if grep -q Traceback noh.err; then exit 1; fi
test ! -e noh
# each kind's manifest config: kind, n, seed, then the kind's parameters
# as floats, sigma defaulting to 1.0
hurstscan synth --kind fgn --n 100 --seed 3 --h 0.6 --out-dir config
hurstscan synth --kind gaussian-white --n 100 --seed 3 --sigma 2.5 --out-dir config
hurstscan synth --kind garch --n 100 --seed 3 --omega 1e-6 --alpha 0.08 --beta 0.91 --out-dir config
python - <<'PY'
import json

want = {
    "fgn": {"kind": "fgn", "n": 100, "seed": 3, "hurst": 0.6, "sigma": 1.0},
    "gaussian_white": {"kind": "gaussian-white", "n": 100, "seed": 3, "sigma": 2.5},
    "garch": {"kind": "garch", "n": 100, "seed": 3, "omega": 1e-6, "alpha": 0.08, "beta": 0.91},
}
for stem, config in want.items():
    with open(f"config/{stem}_n100_seed3.synth.manifest.json") as fh:
        manifest = json.load(fh)
    got = json.dumps(manifest["config"])
    assert got == json.dumps(config) and manifest["seed"] == 3, (stem, got)
PY
# a byte that is not UTF-8 (Windows-1252 "e acute") in a price fails as
# that line's unparsable cell
printf 'date,close\n2000-01-03,100.0\n2000-01-04,101.0\n2000-01-05,10\xe9.0\n' > latin.csv
status=0
hurstscan analyze latin.csv 2> latin.err || status=$?
test "$status" -eq 1
grep -q "latin.csv:4:" latin.err
if grep -q Traceback latin.err; then exit 1; fi
# scales 4..500 of 2,000 points: the F_q stage takes the power means
# in ten calls; at 4..452 the last call holds the single scale 452.
# F_q at a scale does not depend on the other scales asked for, so the
# header and scales 4..452 of the two runs agree byte for byte
python -W error -m hurstscan.cli analyze fgn.csv --returns --s-min 4 --s-max 500 --q=-4 --q=2 --q=4 --out-dir s500
python -W error -m hurstscan.cli analyze fgn.csv --returns --s-min 4 --s-max 452 --q=-4 --q=2 --q=4 --out-dir s452
for q in -4 2 4; do
  head -n 450 "s500/fgn.fluct_q$q.csv" | cmp - "s452/fgn.fluct_q$q.csv"
done
# 300 equal returns: zero segment fluctuations, which negative q rejects
awk -F, 'NR > 801 && NR <= 1101 { $2 = "0.001" } 1' OFS=, fgn.csv > flat.csv
status=0
hurstscan analyze flat.csv --returns --no-garch --q=-2 --q=2 2> flat.err || status=$?
test "$status" -eq 1
grep -q "zero segment fluctuation with negative q" flat.err
# and up to scale 400, where order 1 takes the large scales' segments
# from prefix moments: their flat segments are exact zeros too
status=0
hurstscan analyze flat.csv --returns --no-garch --q=-2 --q=2 --s-max 400 2> flat400.err || status=$?
test "$status" -eq 1
grep -q "zero segment fluctuation with negative q" flat400.err
hurstscan roll fgn.csv --returns --step 100
hurstscan report fgn.rolling.csv
# a rolling CSV whose line 3 repeats line 2's date and whose line 6 holds
# a bad flag fails naming line 3, the first bad line, and writes nothing
python - <<'PY'
lines = open("fgn.rolling.csv").read().splitlines()
lines[2] = lines[1].split(",")[0] + "," + lines[2].split(",", 1)[1]
lines[5] = lines[5].rsplit(",", 1)[0] + ",maybe"
open("unordered.rolling.csv", "w").write("\n".join(lines) + "\n")
PY
status=0
hurstscan report unordered.rolling.csv --out-dir unordered 2> unordered.err || status=$?
test "$status" -eq 1
grep -q "unordered.rolling.csv:3: date " unordered.err
if grep -q Traceback unordered.err; then exit 1; fi
test ! -e unordered
# roll computes q = 2 only: --q 2 changes no byte, and any other q is a
# usage error that writes nothing
hurstscan roll fgn.csv --returns --step 100 --q 2 --out-dir q2
cmp q2/fgn.rolling.csv fgn.rolling.csv
cmp q2/fgn.rolling.jsonl fgn.rolling.jsonl
status=0
hurstscan roll fgn.csv --returns --step 100 --q=-2 --out-dir negq 2> negq.err || status=$?
test "$status" -eq 1
test ! -e negq
if grep -q Traceback negq.err; then exit 1; fi
hurstscan roll fgn.csv --returns --step 100 --garch-mode per-window
# a window's row does not depend on the step: the step-50 per-window
# roll (the own-values loop) is every 5th row of the step-10 one, and
# the step-10 order-0 roll (the shared source and its slope term) every
# 10th of step 1's
hurstscan roll fgn.csv --returns --step 10 --garch-mode per-window --out-dir pw10
hurstscan roll fgn.csv --returns --step 50 --garch-mode per-window --out-dir pw50
awk 'NR==1 || (NR-2) % 5 == 0' pw10/fgn.rolling.csv | cmp - pw50/fgn.rolling.csv
hurstscan roll fgn.csv --returns --step 10 --detrend-order 0 --out-dir o0s10
hurstscan roll fgn.csv --returns --step 1 --detrend-order 0 --out-dir o0s1
awk 'NR==1 || (NR-2) % 10 == 0' o0s1/fgn.rolling.csv | cmp - o0s10/fgn.rolling.csv
# s_max = window // 4: the whole-sample recursion's longest segments,
# which reach its zero padding at the last starts
hurstscan roll fgn.csv --returns --step 7 --s-max 125 --detrend-order 2
# a whole-sample roll at step 37 is every 37th row of the step-1 roll
hurstscan roll fgn.csv --returns --step 1 --out-dir s1
hurstscan roll fgn.csv --returns --step 37 --out-dir s37
awk 'NR==1 || (NR-2) % 37 == 0' s1/fgn.rolling.csv | cmp - s37/fgn.rolling.csv
# the 300 equal returns at order 3 in one whole-sample fit: near-flat
# segments, detrended without a warning
python -W error -m hurstscan.cli roll flat.csv --returns --detrend-order 3 --out-dir flat3
# one window of the whole file: roll averages many scales per power-mean
# call, as analyze does, and must give analyze's q = 2 fit and measures;
# at order 0 the whole-sample roll adds each segment's slope term.  Up
# to scale 500, order 1 takes its large scales from prefix moments in
# analyze (one series) and in the per-window roll (a block of windows),
# which the whole-sample roll's Givens updates check independently
for smax in 50 500; do
  for order in 1 0; do
    one="one$order-$smax"
    hurstscan analyze fgn.csv --returns --detrend-order "$order" --s-max "$smax" --out-dir "$one"
    for mode in whole-sample per-window; do
      hurstscan roll fgn.csv --returns --window 2000 --s-max "$smax" --detrend-order "$order" --garch-mode "$mode" --out-dir "$mode$order-$smax"
      python -c 'import json, sys, hurstscan as h; r = h.read_rolling_csv(sys.argv[3] + "/fgn.rolling.csv"); fit, = (f for f in json.load(open(sys.argv[1])) if f["q"] == 2.0); want = {"hurst": fit["hurst"], **json.load(open(sys.argv[2]))}; bad = {k: (getattr(r, k)[0], v) for k, v in want.items() if not abs(getattr(r, k)[0] - v) <= 1e-12 * abs(v)}; assert len(r) == 1 and not bad, bad' "$one/fgn.scaling.json" "$one/fgn.indicators.json" "$mode$order-$smax"
    done
  done
done
# three per-window windows up to scale 400
hurstscan roll fgn.csv --returns --window 1990 --step 4 --s-max 400 --q=2 --garch-mode per-window
# far from unit scale the liquidity measures neither overflow nor underflow
hurstscan synth --kind fgn --n 2000 --h 0.6 --sigma 1e100 --out big.csv
hurstscan synth --kind fgn --n 2000 --h 0.6 --sigma 1e-100 --out tiny.csv
hurstscan analyze big.csv --returns --no-garch --q=-4 --q=2 --q=4
hurstscan analyze tiny.csv --returns --no-garch --q=-4 --q=2 --q=4
# returns of about 1e157 (synth rejects that sigma): mfdfa scales the
# series to unit size, so the first value out of the float range is
# R(s), in squared units; it exits 1 with a message, not a warning
python -c 'import hurstscan as h; r = h.gen_garch(200, 1e-6, 0.08, 0.91, seed=8) * 1e160; h.save_returns(h.ReturnSeries(h.synthetic_dates(r.size), r), "huge.csv")'
status=0
python -W error -m hurstscan.cli analyze huge.csv --returns --no-garch --s-min 3 --s-max 15 2> huge.err || status=$?
test "$status" -eq 1
grep -qF "R(s) = F_2(s)^2 / s^(2H) leaves the floating-point range" huge.err
if grep -q Traceback huge.err; then exit 1; fi
# returns whose second half is 2**-200 times the first: each window of
# a whole-sample roll keeps its own digits, as mfdfa's window does, so
# none detrends to exact zeros and the roll exits 0
python -c 'import hurstscan as h; v = h.gen_garch(1200, 1e-6, 0.08, 0.91, seed=3); v[600:] *= 2.0**-200; h.save_returns(h.ReturnSeries(h.synthetic_dates(v.size), v), "mixed.csv")'
hurstscan roll mixed.csv --returns --window 200 --step 10 --s-min 5 --s-max 40 2> mixed.err
if grep -q Traceback mixed.err; then exit 1; fi
# returns at 1e-160 times unit size: their sample variance, about
# 1e-320, is not a normal float, so the GARCH fit exits 2 and writes nothing
python -c 'import hurstscan as h; r = h.gen_garch(1000, 1e-6, 0.08, 0.91, seed=2); r = r / r.std() * 1e-160; h.save_returns(h.ReturnSeries(h.synthetic_dates(r.size), r), "subnormal.csv")'
status=0
hurstscan analyze subnormal.csv --returns --garch --out-dir subnormal 2> subnormal.err || status=$?
test "$status" -eq 2
grep -q "out of floating-point range" subnormal.err
if grep -q Traceback subnormal.err; then exit 1; fi
test ! -e subnormal
# 100,000 rows: the CSV reader crosses about 100 blocks
hurstscan synth --kind fgn --n 100000 --h 0.7 --sigma 0.01 --out long.csv
hurstscan analyze long.csv --returns --s-max 1000
# a sigma whose series leaves the float range exits 1 and writes nothing
for params in "--kind fgn --n 2000 --h 0.6 --sigma 1e300" \
              "--kind fgn --n 2000 --h 0.6 --sigma 1e-300" \
              "--kind gaussian-white --n 100 --sigma 1e308"; do
  status=0
  hurstscan synth $params --out out_of_range.csv || status=$?
  test "$status" -eq 1
  test ! -e out_of_range.csv
done
