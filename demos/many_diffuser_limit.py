"""How fast one diffuser reaches the many-diffuser limit.

For an N-photon input there is a closed form for the single-cell pmf in
the limit of infinitely many diffusers in series.  This script measures
the total-variation distance between one physical stage and that limit:
with enough cells a *single* diffuser is already indistinguishable from
the infinite cascade.  It also shows the limit expression's honest
failure mode — at small M it stops being a distribution, and the library
says so instead of clipping.
"""

from rggstats import (
    InvalidPmf,
    fock_pn_limit_fractions,
    fock_pn_limit_pmf,
    fock_scatter_pmf,
    total_variation,
)

N = 60


def main() -> None:
    print(f"{N}-photon input: one stage vs. the deep-cascade closed form\n")
    print(f"{'M':>6} {'TV distance':>14}")
    for M in (60, 100, 200, 400, 1000):
        tv = total_variation(fock_scatter_pmf(N, M), fock_pn_limit_pmf(N, M))
        print(f"{M:>6} {tv:>14.3e}")
    print("\nthe two distributions already almost coincide at M of a few")
    print("hundred — a single ground glass makes pseudo-thermal light.\n")

    # The closed form is an alternating sum; push M too low and it goes
    # negative. The pmf constructor refuses it, the raw evaluator shows it.
    try:
        fock_pn_limit_pmf(2, 1)
    except InvalidPmf as exc:
        print(f"small-M pathology, reported not hidden:\n  {exc}")
    raw = [float(p) for p in fock_pn_limit_fractions(2, 1)]
    print(f"  raw closed-form values at N=2, M=1: {raw}")


if __name__ == "__main__":
    main()
