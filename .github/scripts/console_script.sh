#!/bin/bash
# Runs the installed `sl2torus` console script outside the checkout, in a
# new temporary directory; exits 1 on the first failed check.
# - sample and canon on four sectors;
# - edge.json, a hyperbolic matrix at the edge of the |tr| = 2 band: --out
#   over a longer file, twice, must end with exactly the stdout bytes;
# - plot twice over the same files, which must not change;
# - exact.json, a CC and a DB record and the two exact errors: both
#   commands exit 3 with the errors' Fraction details;
# - coupling.json, an exact CC pair with coupling 1e-9, below param_tol,
#   in both orders, and one with coupling -3e-12 beside the pivot U2:
#   canon answers CC for each with exit 0;
# - overflow.json, an exact CC pair whose coupling 1e600 is beyond the
#   float range, so that alpha = pi/2 - 1e-600 rounds to pi/2: canon exits
#   3 with a PARAM_OUT_OF_RANGE line and no traceback (an empty stderr);
# - family.json, an exact CB, BC and CC pair conjugated by the rational
#   shear [[1, 0], [1/2, 1]], each in both orders: canon --mode rational
#   exits 0 with sectors CB, BC, BC, CB, CC, CC and the "exact" coupling
#   and sign of each CC record;
# - witness.json, written by python3 (standard library only), an exact CC
#   pair whose entries fit a float but whose witness products do not, in
#   both orders: canon exits 3 with an INTERNAL_VALIDATION and a
#   PARAM_OUT_OF_RANGE line and an empty stderr.
set -eo pipefail  # as GitHub Actions runs a bash step
cd "$(mktemp -d)"
for s in AA2 BB CC DD; do sl2torus sample $s --count 3 --conjugate --seed 1 --out $s.json && sl2torus canon $s.json || exit 1; done
echo '{"pairs": [{"id": "p0", "U1": [[1.000000001, 1], [1e-9, 1]], "U2": [[1, 0], [0, 1]]}]}' > edge.json
sl2torus canon edge.json > s.jsonl || exit 1
head -c 100000 /dev/zero | tr '\0' x > c.jsonl
sl2torus canon edge.json --out c.jsonl && sl2torus canon edge.json --out c.jsonl && cmp c.jsonl s.jsonl || exit 1
sl2torus plot overall --out fig && cp fig.csv f0.csv && cp fig.svg f0.svg || exit 1
sl2torus plot overall --out fig && cmp fig.csv f0.csv && cmp fig.svg f0.svg || exit 1
echo '{"pairs": [{"id": "cc", "mode": "rational", "U1": [[1, [1, 1000000000000]], [0, 1]], "U2": [[1, [2, 1000000000000]], [0, 1]]}, {"id": "db", "mode": "rational", "U1": [[[3, 5], [-4, 5]], [[4, 5], [3, 5]]], "U2": [[-1, 0], [0, -1]]}, {"id": "nc", "mode": "rational", "U1": [[1, 1], [0, 1]], "U2": [[1, 0], [1, 1]]}, {"id": "det", "mode": "rational", "U1": [[2, 0], [0, 1]], "U2": [[1, 0], [0, 1]]}]}' > exact.json
for c in canon classify; do
  rc=0; sl2torus $c exact.json --out $c.jsonl || rc=$?
  test $rc -eq 3 || exit 1
  grep -F '"detail": "commutator norm Fraction(1, 1) exceeds tolerance", "error": "NOT_COMMUTING"' $c.jsonl || exit 1
  grep -F '"detail": "matrix determinant is Fraction(2, 1), expected 1", "error": "DETERMINANT"' $c.jsonl || exit 1
done
echo '{"pairs": [{"id": "fwd", "mode": "rational", "U1": [[1, 1], [0, 1]], "U2": [[1, [1, 1000000000]], [0, 1]]}, {"id": "back", "mode": "rational", "U1": [[1, [1, 1000000000]], [0, 1]], "U2": [[1, 1], [0, 1]]}, {"id": "neg", "mode": "rational", "U1": [[1, [-3, 1000000000000]], [0, 1]], "U2": [[1, 1], [0, 1]]}]}' > coupling.json
sl2torus canon coupling.json --out coupling.jsonl || exit 1
test "$(grep -c '"sector": "CC"' coupling.jsonl)" -eq 3 || exit 1
e300=1$(printf '%0300d' 0)  # 10^300
echo '{"pairs": [{"id": "ovf", "mode": "rational", "U1": [[1, [1, '$e300']], [0, 1]], "U2": [[1, '$e300'], [0, 1]]}]}' > overflow.json
rc=0; sl2torus canon overflow.json --out overflow.jsonl 2> overflow.err || rc=$?
test $rc -eq 3 && test ! -s overflow.err || exit 1
grep -F '"error": "PARAM_OUT_OF_RANGE"' overflow.jsonl || exit 1
cb='[[[3, 2], 1], [[-1, 4], [1, 2]]]'  # [[1, 1], [0, 1]] conjugated
bc='[[-2, -2], [[1, 2], 0]]'  # [[-1, -2], [0, -1]] conjugated
cc1='[[[13, 10], [3, 5]], [[-3, 20], [7, 10]]]'  # [[1, 3/5], [0, 1]]
cc2='[[[-7, 5], [-4, 5]], [[1, 5], [-3, 5]]]'  # [[-1, -4/5], [0, -1]]
neg='[[-1, 0], [0, -1]]'; one='[[1, 0], [0, 1]]'
echo '{"pairs": [{"id": "cb", "U1": '"$cb"', "U2": '"$neg"'}, {"id": "cb-swap", "U1": '"$neg"', "U2": '"$cb"'}, {"id": "bc", "U1": '"$one"', "U2": '"$bc"'}, {"id": "bc-swap", "U1": '"$bc"', "U2": '"$one"'}, {"id": "cc", "U1": '"$cc1"', "U2": '"$cc2"'}, {"id": "cc-swap", "U1": '"$cc2"', "U2": '"$cc1"'}]}' > family.json
sl2torus canon --mode rational family.json --out family.jsonl || exit 1
test "$(grep -o '"sector": "[A-Z]*"' family.jsonl | tr -d '\n')" = '"sector": "CB""sector": "BC""sector": "BC""sector": "CB""sector": "CC""sector": "CC"' || exit 1
grep -F '"exact": {"c": [-4, 3], "det_sprime_sign": 1}, "id": "cc"' family.jsonl || exit 1
grep -F '"exact": {"c": [-3, 4], "det_sprime_sign": -1}, "id": "cc-swap"' family.jsonl || exit 1
python3 - > witness.json <<'EOF'
import json
from fractions import Fraction as F
def mul(A, B):
    return [[A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in (0, 1)] for i in (0, 1)]
r = F(7, 8) / 10**150  # S = [[1, 5/4], [0, 1]] diag(r, 1/r) [[1, 0], [-5/4, 1]]
S = mul(mul([[F(1), F(5, 4)], [F(0), F(1)]], [[r, F(0)], [F(0), 1 / r]]), [[F(1), F(0)], [F(-5, 4), F(1)]])
Si = [[S[1][1], -S[0][1]], [-S[1][0], S[0][0]]]
U1, U2 = ([[[x.numerator, x.denominator] for x in row] for row in mul(mul(Si, [[F(-1), b], [F(0), F(-1)]]), S)] for b in (F(1), F(2, 10**200)))
print(json.dumps({"pairs": [{"id": "given", "mode": "rational", "U1": U1, "U2": U2}, {"id": "swapped", "mode": "rational", "U1": U2, "U2": U1}]}))
EOF
rc=0; sl2torus canon witness.json --out witness.jsonl 2> witness.err || rc=$?
test $rc -eq 3 && test ! -s witness.err || exit 1
grep -F '"detail": "internal witness validation failed (CC, err beyond the float range)", "error": "INTERNAL_VALIDATION", "id": "given"' witness.jsonl || exit 1
grep -F '"error": "PARAM_OUT_OF_RANGE", "id": "swapped"' witness.jsonl || exit 1
