"""
Margin learning: two bookkeeping routes, one objective
======================================================

The linear classifier scores a hypothesis in two ways that look
nothing alike at first glance.  The geometric route measures how far each
misclassified-or-inside-the-margin case sits from its required
half-space, through the case inconsistency |y f(x) - 1|.  The
bookkeeping route assigns each case the smallest slack making the
margin constraint hold, in closed form.  These are the same numbers,
case by case, and therefore the same objective; the library leans on
that identity and this demo shows it end to end on a small problem.
"""

import numpy as np

from minconsist import (
    SvmParams,
    svm_case_inconsistency,
    svm_objective,
    svm_report,
    svm_slack,
    svm_solve,
    training_set,
)
from minconsist.oracle import run_all_checks

# Linearly separable data with labels -1/+1 and a narrow gap.
T = training_set([
    ((0.0, 0.0), -1), ((0.0, 1.0), -1), ((2.0, 2.0), 1), ((3.0, 2.0), 1),
])
params = SvmParams(w=1.0)

f, report = svm_solve(T, params)
print("fitted hypothesis: b =", tuple(round(v, 4) for v in f.b),
      " a =", round(f.a, 4))
print("objective value:   ", svm_objective(f, T, params))
print()

# Route one: per-case inconsistencies.  Route two: closed-form slacks.
mus = [svm_case_inconsistency(case, f) for case in T.cases]
zetas = list(svm_slack(f, T))
print("case inconsistencies:", [round(v, 6) for v in mus])
print("closed-form slacks:  ", [round(v, 6) for v in zetas])
print("identical:           ", mus == zetas)
print()

# The report is the audit view: per-case rows plus the folded total,
# which equals the objective exactly (mean fold plus the weight term).
print("report rows (mu per case):")
for case, mu in zip(T.cases, report.mus):
    print(f"   x={case.x.values} y={case.y:+d} mu={mu:.6f}")
print("report total:", report.total)
print()

# The oracle module re-checks the route identities on a thousand random
# instances by default; a reduced budget keeps this demo quick.
print("randomized verification (100 trials per identity):")
for result in run_all_checks(100, seed=0):
    print("  ", result.line())
