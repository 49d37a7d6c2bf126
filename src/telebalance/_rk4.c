/* The plant's RK4 span kernel in C: a line-for-line transcription of
 * plant._rk4_span_py, the reference it must match bit for bit.
 *
 * The same stages in the same operation order, the whole substeps and then
 * one remainder substep, and the same fall check after each substep. Built
 * with -ffp-contract=off (no fused multiply-add) and without the sin/cos
 * builtins, so every product, sum and quotient rounds as the Python kernel's
 * does and sin/cos are the libm calls math.sin/math.cos make. plant.py
 * compiles it with -DSUBSTEP_NS=<plant.SUBSTEP_NS> at the first plant
 * advance and keeps it only if it reproduces the Python kernel on a probe
 * set.
 */

#include <math.h>
#include <string.h>

/* Where the Python kernel raises, this one returns RAISES and leaves the
 * span to it: math.sin of an infinite tilt (ValueError) and a zero
 * determinant (ZeroDivisionError). */
#define RAISES (-1LL)

/* x holds (tilt, tilt_rate, wheel_angle, wheel_rate, motor_torque) and is
 * advanced in place; terms is PlantParams._rk4_terms as 7 packed doubles.
 * Returns the substeps taken, or RAISES with x unspecified. */
long long rk4_span(double *x, double tau_cmd, const char *terms,
                   long long span_ns, double fall_threshold)
{
    double t[7];
    memcpy(t, terms, sizeof t);
    const double m11 = t[0], m12c = t[1], m22 = t[2], g_l = t[3];
    const double m11_m22 = t[4], b = t[5], inv_tm = t[6];
    double th = x[0], w = x[1], phi = x[2], v = x[3], tau = x[4];
    /* divmod: the quotient is floored, the remainder in [0, SUBSTEP_NS) */
    long long n_full = span_ns / SUBSTEP_NS, rem = span_ns % SUBSTEP_NS;
    if (rem < 0) {
        rem += SUBSTEP_NS;
        n_full -= 1;
    }

    long long done = 0;
    for (int group = 0; group < (rem ? 2 : 1); group++) {
        long long n_steps = group ? 1 : n_full;
        double h = group ? (double)rem * 1e-9 : (double)SUBSTEP_NS * 1e-9;
        double half = 0.5 * h, sixth = h / 6.0;
        for (long long i = 0; i < n_steps; i++) {
            double s, m12, q, rhs_w, rhs_t, det;

            if (isinf(th)) return RAISES;
            s = sin(th);
            m12 = m12c * cos(th);
            q = tau - b * (v - w);
            rhs_w = q + m12c * s * w * w;
            rhs_t = g_l * s - q;
            det = m11_m22 - m12 * m12;
            if (det == 0.0) return RAISES;
            double b1 = (m11 * rhs_t - m12 * rhs_w) / det;
            double d1 = (m22 * rhs_w - m12 * rhs_t) / det;
            double e1 = (tau_cmd - tau) * inv_tm;

            double th2 = th + half * w;
            double w2 = w + half * b1;
            double v2 = v + half * d1;
            double tau2 = tau + half * e1;
            if (isinf(th2)) return RAISES;
            s = sin(th2);
            m12 = m12c * cos(th2);
            q = tau2 - b * (v2 - w2);
            rhs_w = q + m12c * s * w2 * w2;
            rhs_t = g_l * s - q;
            det = m11_m22 - m12 * m12;
            if (det == 0.0) return RAISES;
            double b2 = (m11 * rhs_t - m12 * rhs_w) / det;
            double d2 = (m22 * rhs_w - m12 * rhs_t) / det;
            double e2 = (tau_cmd - tau2) * inv_tm;

            double th3 = th + half * w2;
            double w3 = w + half * b2;
            double v3 = v + half * d2;
            double tau3 = tau + half * e2;
            if (isinf(th3)) return RAISES;
            s = sin(th3);
            m12 = m12c * cos(th3);
            q = tau3 - b * (v3 - w3);
            rhs_w = q + m12c * s * w3 * w3;
            rhs_t = g_l * s - q;
            det = m11_m22 - m12 * m12;
            if (det == 0.0) return RAISES;
            double b3 = (m11 * rhs_t - m12 * rhs_w) / det;
            double d3 = (m22 * rhs_w - m12 * rhs_t) / det;
            double e3 = (tau_cmd - tau3) * inv_tm;

            double th4 = th + h * w3;
            double w4 = w + h * b3;
            double v4 = v + h * d3;
            double tau4 = tau + h * e3;
            if (isinf(th4)) return RAISES;
            s = sin(th4);
            m12 = m12c * cos(th4);
            q = tau4 - b * (v4 - w4);
            rhs_w = q + m12c * s * w4 * w4;
            rhs_t = g_l * s - q;
            det = m11_m22 - m12 * m12;
            if (det == 0.0) return RAISES;
            double b4 = (m11 * rhs_t - m12 * rhs_w) / det;
            double d4 = (m22 * rhs_w - m12 * rhs_t) / det;
            double e4 = (tau_cmd - tau4) * inv_tm;

            th += sixth * (w + 2.0 * (w2 + w3) + w4);
            w += sixth * (b1 + 2.0 * (b2 + b3) + b4);
            phi += sixth * (v + 2.0 * (v2 + v3) + v4);
            v += sixth * (d1 + 2.0 * (d2 + d3) + d4);
            tau += sixth * (e1 + 2.0 * (e2 + e3) + e4);
            if (th > fall_threshold || -th > fall_threshold) {
                x[0] = th; x[1] = w; x[2] = phi; x[3] = v; x[4] = tau;
                return done + i + 1;
            }
        }
        done += n_steps;
    }
    x[0] = th; x[1] = w; x[2] = phi; x[3] = v; x[4] = tau;
    return done;
}
