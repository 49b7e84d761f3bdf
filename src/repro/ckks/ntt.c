/* The stage loops of repro.ckks.ntt.NttKernel, one row at a time.
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
