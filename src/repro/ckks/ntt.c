/* The C kernels of repro.ckks: the stage loops of ntt.NttKernel, one row at a
 * time, and the pointwise halves of rns.RnsPolynomial.divide_and_round_last.
 *
 * Every operand of a Shoup product is below 2^32 and every modulus below 2^31,
 * so each product fits 64 bits; built for the host CPU, gcc vectorises the
 * row loops.
 *
 * A transcription of NttKernel._numpy_forward / _numpy_inverse: the same
 * constant-geometry stages, the same lazy Shoup butterflies in [0, 2q) and the
 * same final reduction, in the same uint64 arithmetic, so the outputs are
 * bit-identical.  The tables are the kernel's own numpy arrays, read in place:
 * twiddle w of stage s, row k, pair i is tw[s*stage + k*row + i] and its Shoup
 * companion sits `shoup` words further on; the modulus of row k is q[k*q_row]
 * and n^-1 with its companion are n_inv[k*n_row] and n_inv[shoup_n + k*n_row].
 * A row view of a parent kernel passes the parent's strides, so no table is
 * copied.  Rows are `rows` consecutive length-n rows of each of `batch` blocks
 * `block` words apart, in `in` and in `out`.  Returns 0, or -1 when the
 * scratch row cannot be allocated (nothing is written then).
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

typedef ptrdiff_t idx;

static inline uint64_t mul_shoup(uint64_t x, uint64_t w, uint64_t w_shoup, uint64_t q) {
    return x * w - ((x * w_shoup) >> 32) * q;
}

static inline uint64_t lazy(uint64_t t, uint64_t two_q) {
    uint64_t v = t - two_q;
    return v < t ? v : t;
}

int repro_ntt_forward(const uint64_t *in, uint64_t *out, idx batch, idx block, idx rows, idx n,
                      const uint64_t *tw, idx stage, idx shoup, idx row,
                      const uint64_t *q_of, idx q_row) {
    idx half = n / 2, stages = 0;
    while ((idx)1 << stages < n) stages++;
    uint64_t *scratch = malloc(n * sizeof(uint64_t));
    if (!scratch) return -1;
    for (idx b = 0; b < batch; b++) {
        for (idx k = 0; k < rows; k++) {
            const uint64_t *x = in + b * block + k * n;
            uint64_t *dest = out + b * block + k * n, q = q_of[k * q_row], two_q = 2 * q;
            /* Ping-pong so that the last stage writes `dest`. */
            uint64_t *y = stages & 1 ? dest : scratch;
            for (idx s = 0; s < stages; s++) {
                const uint64_t *w = tw + s * stage + k * row, *w_shoup = w + shoup;
                for (idx i = 0; i < half; i++) {
                    uint64_t low = x[i], u = mul_shoup(x[i + half], w[i], w_shoup[i], q);
                    y[2 * i] = lazy(low + u, two_q);
                    y[2 * i + 1] = lazy(low - u + two_q, two_q);
                }
                x = y;
                y = y == dest ? scratch : dest;
            }
            for (idx i = 0; i < n; i++) dest[i] = lazy(dest[i], q);
        }
    }
    free(scratch);
    return 0;
}

int repro_ntt_inverse(const uint64_t *in, uint64_t *out, idx batch, idx block, idx rows, idx n,
                      const uint64_t *tw, idx stage, idx shoup, idx row,
                      const uint64_t *q_of, idx q_row,
                      const uint64_t *n_inv, idx shoup_n, idx n_row) {
    idx half = n / 2, stages = 0;
    while ((idx)1 << stages < n) stages++;
    uint64_t *scratch = malloc(n * sizeof(uint64_t));
    if (!scratch) return -1;
    for (idx b = 0; b < batch; b++) {
        for (idx k = 0; k < rows; k++) {
            const uint64_t *x = in + b * block + k * n;
            uint64_t *dest = out + b * block + k * n, q = q_of[k * q_row], two_q = 2 * q;
            uint64_t *y = stages & 1 ? dest : scratch;
            for (idx s = 0; s < stages; s++) {
                const uint64_t *w = tw + s * stage + k * row, *w_shoup = w + shoup;
                for (idx i = 0; i < half; i++) {
                    uint64_t even = x[2 * i], odd = x[2 * i + 1];
                    y[i] = lazy(even + odd, two_q);
                    y[i + half] = mul_shoup(lazy(even - odd + two_q, two_q), w[i], w_shoup[i], q);
                }
                x = y;
                y = y == dest ? scratch : dest;
            }
            uint64_t scale = n_inv[k * n_row], scale_shoup = n_inv[shoup_n + k * n_row];
            for (idx i = 0; i < n; i++) dest[i] = lazy(mul_shoup(dest[i], scale, scale_shoup, q), q);
        }
    }
    free(scratch);
    return 0;
}

/* The pointwise halves of a division by the last `count` primes with rounding,
 * bit-identical to repro.ckks.rns.RescaleConstants._numpy_correction and
 * _numpy_finish.  Digit i belongs to the i-th dropped prime p[i], last first:
 * it is dropped row count-1-i after the mixed-radix steps
 * d <- (d - centered(digit j)) * p[j]^-1 mod p[i] for j < i, kept uncentered
 * in [0, p[i]).  Since p[j] * p[j]^-1 = 1 mod p[i], subtracting a centered
 * digit is subtracting the uncentered one and adding 1 when it is negative
 * (above p[j] / 2).  Likewise the correction, sum_i W_i * centered(digit i)
 * with W_i = p[0] ... p[i-1], is sum_i W_i * digit_i, minus W_{i+1} for each
 * negative digit, modulo each kept prime q[k].  The result is
 * (kept - correction) * (p[0] ... p[count-1])^-1 mod q[k].
 *
 * Tables, each of values beside their Shoup companions `size` words on:
 * steps[i*count + j] = p[j]^-1 mod p[i] (size count*count), weights[i*keep + k]
 * = W_i mod q[k] for i <= count (size (count+1)*keep), inverse[k] (size keep).
 * Rows are `n` words, `keep` kept ones and `count` dropped ones.
 *
 * `kept` NULL: only the correction is written to `out`.  `dropped` NULL: `out`
 * holds a correction (transformed by the caller) and is replaced by the result
 * in place.  Both given: the whole division.  Returns 0, or -1 when the digit
 * rows cannot be allocated (nothing is written then).
 */
int repro_rescale(const uint64_t *kept, const uint64_t *dropped, uint64_t *out,
                  idx n, idx keep, idx count, const uint64_t *q, const uint64_t *p,
                  const uint64_t *steps, const uint64_t *weights, const uint64_t *inverse) {
    uint64_t *scratch = NULL;
    if (dropped && count > 1 && !(scratch = malloc((count - 1) * n * sizeof(uint64_t)))) return -1;
    for (idx i = 1; dropped && i < count; i++) {
        const uint64_t *row = dropped + (count - 1 - i) * n;
        uint64_t *d = scratch + (i - 1) * n, prime = p[i];
        for (idx j = 0; j < i; j++) {
            const uint64_t *src = j ? d : row;
            const uint64_t *e = j ? scratch + (j - 1) * n : dropped + (count - 1) * n;
            uint64_t w = steps[i * count + j], w_shoup = steps[count * count + i * count + j];
            uint64_t half = p[j] / 2;
            for (idx x = 0; x < n; x++) {
                uint64_t t = lazy(mul_shoup(src[x], w, w_shoup, prime), prime);
                uint64_t u = lazy(mul_shoup(e[x], w, w_shoup, prime), prime);
                t = lazy(t + prime - u, prime);
                d[x] = lazy(t + (e[x] > half), prime);
            }
        }
    }
    for (idx k = 0; k < keep; k++) {
        uint64_t *acc = out + k * n, modulus = q[k];
        for (idx i = 0; dropped && i < count; i++) {
            const uint64_t *d = i ? scratch + (i - 1) * n : dropped + (count - 1) * n;
            uint64_t w = weights[i * keep + k], w_shoup = weights[(count + 1 + i) * keep + k];
            uint64_t negative = modulus - weights[(i + 1) * keep + k], half = p[i] / 2;
            for (idx x = 0; x < n; x++) {
                uint64_t t = lazy(mul_shoup(d[x], w, w_shoup, modulus), modulus);
                t = lazy(t + (d[x] > half ? negative : 0), modulus);
                acc[x] = i ? lazy(acc[x] + t, modulus) : t;
            }
        }
        if (!kept) continue;
        const uint64_t *x_row = kept + k * n;
        uint64_t scale = inverse[k], scale_shoup = inverse[keep + k];
        for (idx x = 0; x < n; x++) {
            uint64_t diff = x_row[x] + modulus - acc[x];
            acc[x] = lazy(mul_shoup(diff, scale, scale_shoup, modulus), modulus);
        }
    }
    free(scratch);
    return 0;
}
