#!/usr/bin/env bash
# Console-script checks: the installed [project.scripts] entry point, run in
# $RUNNER_TEMP (a fresh temporary directory when that is unset), outside the
# checkout, so neither src/ nor the working directory is on the path. Both
# CI jobs run it after installing the package:
#   bash .github/console-script-checks.sh
set -eo pipefail
RUNNER_TEMP="${RUNNER_TEMP:-$(mktemp -d)}"
cd "$RUNNER_TEMP" && test "$(spinframes exclusion --s2 3)" = "allowed_S2: 0 4"
# exchange assembles both cases through pair assembly
test "$(spinframes exchange --sa2 1 --sb2 2 --case first)" = "phase=-1 case_discrepancy=-1"
# and at the largest spins, each reading its column of a 13x13 or
# 12x12 D matrix
test "$(spinframes exchange --sa2 12 --sb2 11 --case second)" = "phase=-1 case_discrepancy=-1"
# two spin-1/2 particles: each case's phase is read off the turns
# measured between the rotations before and after the exchange
test "$(spinframes exchange --sa2 1 --sb2 1 --case first)" = "phase=-1 case_discrepancy=+1"
test "$(spinframes exchange --sa2 1 --sb2 1 --case second)" = "phase=-1 case_discrepancy=+1"
# the report reads every row, up to K_20, off one parity forest
# grown a particle at a time: 19 rows, N = 2 the only satisfiable one
spinframes impossibility --n 20 >report.txt
test "$(wc -l <report.txt)" -eq 19
test "$(head -n 1 report.txt)" = "N=2 satisfiable=true witnesses=2"
test "$(tail -n 1 report.txt)" = "N=20 satisfiable=false witnesses=0"
# the console script and python -m share one entry point, cli.run
python -m spinframes impossibility --n 20 >module.txt
cmp report.txt module.txt
# --out is written in full, and rejected input (exit 2) leaves it
# as it was: the file is opened only after the report is rendered
spinframes exclusion --s2 3 --out "$RUNNER_TEMP/out.txt"
test "$(cat "$RUNNER_TEMP/out.txt")" = "allowed_S2: 0 4"
set +e
spinframes exclusion --s2 99 --out "$RUNNER_TEMP/out.txt"
status=$?
set -e
test "$status" -eq 2
test "$(cat "$RUNNER_TEMP/out.txt")" = "allowed_S2: 0 4"
# a report that cannot be written (every write to /dev/full fails)
# is bad output, exit 2 with one error line: not a failed claim
# (1) and no traceback
set +e
spinframes exclusion --s2 3 --out /dev/full 2>full_err.txt
status=$?
set -e
test "$status" -eq 2
test "$(wc -l <full_err.txt)" -eq 1
grep -q '^error: cannot write --out: ' full_err.txt
# a vector flag that does not parse: exit 2 with one error line
# that names the flag (and the component)
set +e
spinframes frames --pa 1,0,1 --pb a,0,1 2>vec_err.txt
status=$?
set -e
test "$status" -eq 2
test "$(wc -l <vec_err.txt)" -eq 1
grep -q '^error: --pb' vec_err.txt
# frames: the header, two frames, the bisector, both sheets and
# the claim that the sheets negate
spinframes frames --pa 1,0,1 --pb=-1,0,1 >frames.txt
test "$(wc -l <frames.txt)" -eq 7
test "$(tail -n 1 frames.txt)" = "opposite_sheets_negate: true"
# the frames depend on the momenta's directions only: scaled by
# 2^-900 and 2^900 (the repr of each float), every line after the
# header is the same, residuals included
spinframes frames --pa 3,1,2 --pb=-1,2,1 >unscaled.txt
spinframes frames \
  --pa=3.549156558500324e-271,1.1830521861667747e-271,2.3661043723335494e-271 \
  --pb=-8.452712498170644e+270,1.6905424996341288e+271,8.452712498170644e+270 \
  >scaled.txt
# directions about 1e-8 apart pass the collinearity threshold but
# leave the normal too rounded for an orthonormal triad: bad input
# (exit 2) with the collinear error, and nothing on stdout. Plain
# float arithmetic, so every Python in the matrix agrees
set +e
spinframes frames \
  --pa=-0.2530210960357105,-0.3022294347264799,-0.9190417257914899 \
  --pb=-0.2530211128203417,-0.3022294356384742,-0.9190417423666852 \
  >near.txt 2>near_err.txt
status=$?
set -e
test "$status" -eq 2
test ! -s near.txt
test "$(cat near_err.txt)" = "helicity frame undefined for collinear momenta"
sed -n 2,7p unscaled.txt >unscaled_body.txt
sed -n 2,7p scaled.txt >scaled_body.txt
test "$(wc -l <scaled_body.txt)" -eq 6
cmp unscaled_body.txt scaled_body.txt
# a reader that stops after one line: the line is right, nothing
# reaches stderr, and the exit code is neither a failed claim (1)
# nor bad input (2); the shell runs with -e and pipefail
set +e
spinframes dmatrix --s2 12 --axis 0,0,1 --angle 1 2>err.txt | head -n 1 >first.txt
status=${PIPESTATUS[0]}
set -e
echo "dmatrix into head -n 1: exit $status"
test "$(cat first.txt)" = "dmatrix: s2=12 axis=0,0,1 angle=1"
test ! -s err.txt
test "$status" != 1
test "$status" != 2
