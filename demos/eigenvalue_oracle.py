"""Cross-check the closed-form zonal-kernel eigenvalues against the
independent Funk-Hecke quadrature oracle, and scan the bilinear margin.

Run:  python3 demos/eigenvalue_oracle.py
"""

import math

from octhls import spectra


def main():
    print("eigenvalues of the kernel |1 - w|^(-2 alpha) on bispherical subspaces")
    print("(closed form vs Duffy-mapped Gauss-Jacobi quadrature)\n")
    alpha = 4.0
    table = spectra.eig_quadrature_table(spectra.kernel_K1(alpha), alpha, 4)
    print(" j  k   closed form       quadrature        rel diff")
    for (j, k), qd in sorted(table.values.items()):
        cf = spectra.eig_K1(j, k, alpha)
        print(f"{j:2d} {k:2d}   {cf: .9e}  {qd: .9e}  {abs(qd - cf) / cf:.2e}")
    print("\nbase value check: lambda_00 at alpha=4 is pi^8/1080 =", math.pi ** 8 / 1080)

    print("\nratio of eigenvalues at consecutive parameters (alpha = 4):")
    for j, k in ((0, 0), (3, 1), (5, 0)):
        print(
            f"  (j,k)=({j},{k}): closed ratio {spectra.eig_K1_ratio(j, k, 4.0):.6f}, "
            f"direct {spectra.eig_K1(j, k, 3.0) / spectra.eig_K1(j, k, 4.0):.6f}"
        )

    print("\nbilinear eigenvalue margin (nonnegative for 3 <= alpha < 5.5):")
    for alpha in (2.5, 3.0, 4.0, 5.25):
        worst, arg = math.inf, None
        zeros, violated = 0, False
        for j in range(41):
            for k in range(j + 1):
                # the margin is a product, exactly 0.0 where it vanishes
                m = spectra.bilinear_margin(j, k, alpha)
                if m < worst:
                    worst, arg = m, (j, k)
                zeros += m == 0.0
                violated = violated or m < 0.0
        flag = "VIOLATED" if violated else "ok"
        print(
            f"  alpha={alpha:5.2f}: min margin {worst: .5f} at {arg}, "
            f"{zeros} zero cells [{flag}]"
        )
    print("(the violation at alpha = 2.5 shows the threshold alpha >= 3 is sharp;")
    print(" at alpha = 3 the zero set is (0,0) together with every k >= 2)")


if __name__ == "__main__":
    main()
