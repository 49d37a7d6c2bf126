/* The plant's RK4 span kernel in C, matching plant._rk4_span_py bit for bit:
 * the same four stages in the same operation order, the whole substeps and
 * then one remainder substep, and the same fall check after each substep.
 * The stage is written once here, in stage(); the Python kernel writes it
 * out four times, since a call per stage would slow it down.
 * Built with -ffp-contract=off (no fused multiply-add) and without the
 * sin/cos builtins, so every product, sum and quotient rounds as the Python
 * kernel's does and sin/cos are the libm calls math.sin/math.cos make.
 * plant.py builds it with -DSUBSTEP_NS=<plant.SUBSTEP_NS> at the first plant
 * advance and keeps it only if it reproduces the Python kernel on probes. */

#include <math.h>
#include <string.h>

/* Where the Python kernel raises, this one returns RAISES and leaves the
 * span to it: math.sin of an infinite tilt (ValueError) and a zero
 * determinant (ZeroDivisionError). */
#define RAISES (-1LL)

/* PlantParams._rk4_terms, in its order */
typedef struct { double m11, m12c, m22, g_l, m11_m22, b, inv_tm; } Terms;

/* The derivative at (th, w, v, tau), as each stage of _rk4_span_py writes
 * it: w', v' and tau' into dw, dv and dtau (th' and phi' are w and v).
 * Returns 1 where the Python kernel raises, else 0. */
static inline int stage(const Terms *p, double tau_cmd, double th, double w,
                        double v, double tau,
                        double *dw, double *dv, double *dtau)
{
    if (isinf(th)) return 1;
    double s = sin(th);
    double m12 = p->m12c * cos(th);
    double q = tau - p->b * (v - w);
    double rhs_w = q + p->m12c * s * w * w;
    double rhs_t = p->g_l * s - q;
    double det = p->m11_m22 - m12 * m12;
    if (det == 0.0) return 1;
    *dw = (p->m11 * rhs_t - m12 * rhs_w) / det;
    *dv = (p->m22 * rhs_w - m12 * rhs_t) / det;
    *dtau = (tau_cmd - tau) * p->inv_tm;
    return 0;
}

/* x holds (tilt, tilt_rate, wheel_angle, wheel_rate, motor_torque) and is
 * advanced in place; terms is PlantParams._rk4_terms as 7 packed doubles;
 * span_ns is not negative. Returns the substeps taken, or RAISES with x
 * unspecified. */
long long rk4_span(double *x, double tau_cmd, const char *terms,
                   long long span_ns, double fall_threshold)
{
    Terms p;
    memcpy(&p, terms, sizeof p);
    double th = x[0], w = x[1], phi = x[2], v = x[3], tau = x[4];
    long long n_full = span_ns / SUBSTEP_NS, rem = span_ns % SUBSTEP_NS;
    long long done = 0;
    while (done < n_full + (rem > 0)) {
        double h = (double)(done < n_full ? SUBSTEP_NS : rem) * 1e-9;
        double half = 0.5 * h, sixth = h / 6.0;
        double b1, d1, e1, b2, d2, e2, b3, d3, e3, b4, d4, e4;
        if (stage(&p, tau_cmd, th, w, v, tau, &b1, &d1, &e1)) return RAISES;
        double w2 = w + half * b1, v2 = v + half * d1, tau2 = tau + half * e1;
        if (stage(&p, tau_cmd, th + half * w, w2, v2, tau2, &b2, &d2, &e2))
            return RAISES;
        double w3 = w + half * b2, v3 = v + half * d2, tau3 = tau + half * e2;
        if (stage(&p, tau_cmd, th + half * w2, w3, v3, tau3, &b3, &d3, &e3))
            return RAISES;
        double w4 = w + h * b3, v4 = v + h * d3, tau4 = tau + h * e3;
        if (stage(&p, tau_cmd, th + h * w3, w4, v4, tau4, &b4, &d4, &e4))
            return RAISES;
        th += sixth * (w + 2.0 * (w2 + w3) + w4);
        w += sixth * (b1 + 2.0 * (b2 + b3) + b4);
        phi += sixth * (v + 2.0 * (v2 + v3) + v4);
        v += sixth * (d1 + 2.0 * (d2 + d3) + d4);
        tau += sixth * (e1 + 2.0 * (e2 + e3) + e4);
        done++;
        if (th > fall_threshold || -th > fall_threshold) break;
    }
    x[0] = th; x[1] = w; x[2] = phi; x[3] = v; x[4] = tau;
    return done;
}
