#!/usr/bin/env bash
# The checks that follow the tier-1 tests in CI, for a checkout whose
# `catbij` console script is on PATH:
#
#     bash .github/ci_checks.sh
#
# Scratch files go to a temporary directory.  The first check that fails
# stops the script with a non-zero exit; tests/test_ci_checks.py runs it.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"

# the installed console script
test "$(catbij chains --n 4)" = 9
catbij lattice --n 3 > /dev/null

# a refused argv exits 1 with one error line
code=0
catbij enumerate widget --n 2 > out.txt 2> err.txt || code=$?
test "$code" -eq 1
test ! -s out.txt
test "$(wc -l < err.txt)" -eq 1
grep -q '^error: ' err.txt

# enumerate writes UTF-8 bytes and stops quietly at a closed pipe
test "$(catbij enumerate tree --n 2 --format paren)" = "$(printf '(•(••))\n((••)•)')"
catbij enumerate perm213 --n 12 2> err.txt | head -n 1 > first.txt
test "$(cat first.txt)" = "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]"
test ! -s err.txt
# 786d698a... pins the paren route (tests/test_cli.py N12_DIGESTS["paren"])
catbij enumerate tree --n 12 --format paren | sha256sum | grep -q '^786d698abd138de4'
# 3b7031ab... is the pinned digest of this output (tests/test_cli.py N12_DIGESTS)
catbij enumerate torsion --n 12 | sha256sum | grep -q '^3b7031ab408722aa'
catbij enumerate torsion --n 12 2> err.txt | head -n 1 > /dev/null
test ! -s err.txt

# the verify report does not depend on the CPUs that run it: b8a46413... is
# its pinned digest (bench/workloads.py DIGESTS); under taskset -c 0
# run_suite sees one CPU and forks no child
catbij verify all --n-max 7 | sha256sum | grep -q '^b8a464137896eb12'
taskset -c 0 catbij verify all --n-max 7 | sha256sum | grep -q '^b8a464137896eb12'

# the verify benchmark checks every proof at full size: the ambient-6
# closure sweep, the chain pin and every suite check; tier-1 runs the bench
# only at tiny sizes
python "$root/bench/run.py" --workload verify --seed 1 --seconds 1 --trace 0 > verify.txt
tail -n 1 verify.txt | grep -q '^{"correct": true, '
