/* Optional C twins for the in-repo decoders' sequential hot loops: JPEG
 * baseline/progressive entropy decode (ITU T.81 §F.2/§G.2) and the 8-bit
 * JPEG decode tail (libjpeg's islow IDCT, clamp, replicating upsampling,
 * fixed-point YCbCr -> RGB), PNG scanline unfiltering (RFC 2083 §6), and
 * the TIFF (6.0 §13, early change) and GIF LZW decoders — plus the
 * bilinear warp sampler, the warp kernel's per-pixel hot loop, alone and
 * fused with the lattice fill. The fused sampler fills the lattice rows
 * once per lattice row, writes 0 for pixels whose taps all lie outside,
 * lerps 4-channel interior pixels in one SSE2 register (the same float32
 * operations in the same order; other pixels, and every pixel without
 * SSE2, take the generic per-tap path) and writes at a caller-given row
 * stride, so the warp lands straight in a tile-padded array. The encoders
 * have no twin: no measured path runs them.
 *
 * Entropy/prefix decoding is inherently sequential — one code at a time —
 * so it cannot be vectorized with numpy; the JPEG decode tail can, but as
 * some fifty whole-plane int64 temporaries that C keeps in registers. Each
 * function here is the same algorithm as its pure-Python counterpart,
 * bit-exact, compiled on first use by projcl_ray/fastcodec.py with the
 * system C compiler. The Python loops remain the always-available
 * fallbacks and parity oracles (tests pin bit-equality).
 *
 * Plain C ABI only (ctypes-loaded): no Python.h, no allocation; the caller
 * owns every buffer. Entropy segments arrive unstuffed (0xFF00 removed) and
 * padded with >= 64 zero bytes; every decode loop additionally bounds its
 * bit position against the segment length so corrupt data errors instead
 * of reading out of bounds.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#if defined(__SSE2__)
#include <emmintrin.h>
#endif

typedef struct {
    const uint8_t *d;
    long pos; /* bit position */
} BitReader;

static inline uint32_t peek16(const BitReader *b) {
    long byte = b->pos >> 3;
    uint32_t chunk = ((uint32_t)b->d[byte] << 24) | ((uint32_t)b->d[byte + 1] << 16)
                   | ((uint32_t)b->d[byte + 2] << 8) | (uint32_t)b->d[byte + 3];
    return (chunk >> (16 - (b->pos & 7))) & 0xFFFFu;
}

static inline int32_t take(BitReader *b, int n) {
    long byte = b->pos >> 3;
    uint64_t chunk = ((uint64_t)b->d[byte] << 32) | ((uint64_t)b->d[byte + 1] << 24)
                   | ((uint64_t)b->d[byte + 2] << 16) | ((uint64_t)b->d[byte + 3] << 8)
                   | (uint64_t)b->d[byte + 4];
    int32_t v = (int32_t)((chunk >> (40 - (b->pos & 7) - n)) & ((1u << n) - 1u));
    b->pos += n;
    return v;
}

static inline int32_t extend(int32_t v, int n) { /* T.81 F.2.2.1 EXTEND */
    return v >= (1 << (n - 1)) ? v : v - (1 << n) + 1;
}

/* Block index list for one MCU/data-unit of component c (shared by the
 * baseline and progressive walks). Returns the block count. */
static inline int block_list(long m, long mcus_x, int interleaved,
                             int v, int h, int bpr, int wib, long *blist)
{
    if (interleaved) {
        long my = m / mcus_x, mx = m % mcus_x;
        int nb = 0;
        for (int by = 0; by < v; by++)
            for (int bx = 0; bx < h; bx++)
                blist[nb++] = (my * v + by) * (long)bpr + (mx * h + bx);
        return nb;
    }
    blist[0] = (m / wib) * (long)bpr + (m % wib);
    return 1;
}

/* Decode one restart-free entropy segment of a baseline scan.
 *
 * data/nbytes: unstuffed segment + >=8 zero pad bytes (nbytes excludes pad).
 * m_start/m_count: MCU (interleaved) or data-unit (single-component,
 *   T.81 §A.2 non-interleaved) index range this segment covers.
 * Per scan component c (ncomp <= 4): 65536-byte Huffman lookahead LUTs
 *   (symbol, code length) for DC and AC, sampling factors vv/hh, blocks-per-
 *   row bpr, ceil-grid width wib, and the int32 coefficient store
 *   (n_blocks x 64, zigzag order) written in place.
 * Returns 0, or negative on corrupt data (bad code / index overflow).
 */
long jpeg_baseline_segment(
    const uint8_t *data, long nbytes,
    long m_start, long m_count, long mcus_x, int interleaved, int ncomp,
    const uint8_t **dsym, const uint8_t **dlen,
    const uint8_t **asym, const uint8_t **alen,
    const int32_t *vv, const int32_t *hh,
    const int32_t *bpr, const int32_t *wib,
    int32_t **stores)
{
    long nbits = nbytes * 8;
    BitReader br = {data, 0};
    int32_t preds[4] = {0, 0, 0, 0};
    for (int c = 0; c < ncomp; c++)  /* T.81 A.1.1: factors are 1..4 */
        if (vv[c] < 1 || vv[c] > 4 || hh[c] < 1 || hh[c] > 4) return -6;
    for (long mi = 0; mi < m_count; mi++) {
        long m = m_start + mi;
        for (int c = 0; c < ncomp; c++) {
            const uint8_t *ds = dsym[c], *dl = dlen[c];
            const uint8_t *as = asym[c], *al = alen[c];
            long blist[64];
            int nb = block_list(m, mcus_x, interleaved, vv[c], hh[c],
                                bpr[c], wib[c], blist);
            for (int bi = 0; bi < nb; bi++) {
                int32_t *coef = stores[c] + blist[bi] * 64;
                memset(coef, 0, 64 * sizeof(int32_t));
                if (br.pos > nbits) return -5; /* truncated segment */
                uint32_t pk = peek16(&br);
                int size = ds[pk], ln = dl[pk];
                if (ln == 0) return -1; /* bad DC Huffman code */
                if (size > 15) return -6; /* DHT symbol not a DC size */
                br.pos += ln;
                if (size) preds[c] += extend(take(&br, size), size);
                coef[0] = preds[c];
                int k = 1;
                while (k < 64) {
                    if (br.pos > nbits) return -5; /* truncated segment */
                    pk = peek16(&br);
                    int rs = as[pk];
                    ln = al[pk];
                    if (ln == 0) return -2; /* bad AC Huffman code */
                    br.pos += ln;
                    if (rs == 0x00) break;       /* EOB */
                    if (rs == 0xF0) { k += 16; continue; } /* ZRL */
                    k += rs >> 4;
                    if (k > 63) return -3; /* AC index overflow */
                    int sz = rs & 15;
                    if (sz == 0) return -4; /* run/size with size 0 */
                    coef[k] = extend(take(&br, sz), sz);
                    k++;
                }
            }
        }
    }
    return 0;
}

/* One restart-free segment of a progressive DC scan (T.81 G.1.2.1/G.1.2.2,
 * first pass when Ah==0 else refinement). Same component/geometry layout as
 * jpeg_baseline_segment. */
long jpeg_prog_dc_segment(
    const uint8_t *data, long nbytes,
    long m_start, long m_count, long mcus_x, int interleaved, int ncomp,
    int Ah, int Al,
    const uint8_t **dsym, const uint8_t **dlen,
    const int32_t *vv, const int32_t *hh,
    const int32_t *bpr, const int32_t *wib,
    int32_t **stores)
{
    long nbits = nbytes * 8;
    BitReader br = {data, 0};
    int32_t preds[4] = {0, 0, 0, 0};
    for (int c = 0; c < ncomp; c++)  /* T.81 A.1.1: factors are 1..4 */
        if (vv[c] < 1 || vv[c] > 4 || hh[c] < 1 || hh[c] > 4) return -6;
    for (long mi = 0; mi < m_count; mi++) {
        long m = m_start + mi;
        for (int c = 0; c < ncomp; c++) {
            long blist[64];
            int nb = block_list(m, mcus_x, interleaved, vv[c], hh[c],
                                bpr[c], wib[c], blist);
            for (int bi = 0; bi < nb; bi++) {
                int32_t *coef = stores[c] + blist[bi] * 64;
                if (br.pos > nbits) return -5; /* truncated segment */
                if (Ah == 0) {
                    uint32_t pk = peek16(&br);
                    int size = dsym[c][pk], ln = dlen[c][pk];
                    if (ln == 0) return -1;
                    if (size > 15) return -6; /* DHT symbol not a DC size */
                    br.pos += ln;
                    if (size) preds[c] += extend(take(&br, size), size);
                    coef[0] = preds[c] << Al;
                } else if (take(&br, 1)) {
                    coef[0] |= (int32_t)1 << Al;
                }
            }
        }
    }
    return 0;
}

/* One restart-free segment of a progressive AC scan (single component,
 * non-interleaved; T.81 G.1.2.2-G.1.2.3 with EOB runs and, on refinement,
 * correction bits — mirrors libjpeg's decode_mcu_AC_first/refine and the
 * pure-Python loop in jpeg._decode_progressive_scan bit for bit). */
long jpeg_prog_ac_segment(
    const uint8_t *data, long nbytes,
    long m_start, long m_count,
    int Ss, int Se, int Ah, int Al,
    const uint8_t *asym, const uint8_t *alen,
    int32_t bpr, int32_t wib,
    int32_t *store)
{
    long nbits = nbytes * 8;
    BitReader br = {data, 0};
    long eobrun = 0;
    /* the caller validates the band (T.81 G.1.1.1.1) — re-check here so a
     * future caller can't make blk[k] write past the 64-coef block */
    if (Ss < 1 || Se > 63 || Ss > Se) return -6;
    int32_t p1 = (int32_t)1 << Al, n1 = -((int32_t)1 << Al);
    for (long mi = 0; mi < m_count; mi++) {
        long m = m_start + mi;
        int32_t *blk = store + ((m / wib) * (long)bpr + (m % wib)) * 64;
        if (Ah == 0) { /* first scan for this band */
            if (eobrun > 0) { eobrun--; continue; }
            int k = Ss;
            while (k <= Se) {
                if (br.pos > nbits) return -5; /* truncated segment */
                uint32_t pk = peek16(&br);
                int rs = asym[pk], ln = alen[pk];
                if (ln == 0) return -2;
                br.pos += ln;
                int r4 = rs >> 4, sz = rs & 15;
                if (sz) {
                    k += r4;
                    if (k > Se) return -3;
                    blk[k] = extend(take(&br, sz), sz) * p1;
                    k++;
                } else if (r4 != 15) { /* EOBn */
                    eobrun = ((long)1 << r4) - 1;
                    if (r4) eobrun += take(&br, r4);
                    break;
                } else { /* ZRL */
                    k += 16;
                }
            }
        } else { /* refinement */
            int k = Ss;
            if (eobrun == 0) {
                while (k <= Se) {
                    if (br.pos > nbits) return -5; /* truncated segment */
                    uint32_t pk = peek16(&br);
                    int rs = asym[pk], ln = alen[pk];
                    if (ln == 0) return -2;
                    br.pos += ln;
                    int r4 = rs >> 4, sz = rs & 15;
                    int32_t val = 0;
                    if (sz == 0) {
                        if (r4 != 15) { /* EOBn: tail handled below */
                            eobrun = (long)1 << r4;
                            if (r4) eobrun += take(&br, r4);
                            break;
                        }
                        /* ZRL: skip 16 zero-history coefficients */
                    } else {
                        val = take(&br, 1) ? p1 : n1;
                    }
                    /* advance over r4 zero-history coefficients, applying
                     * correction bits to nonzero-history ones passed */
                    while (k <= Se) {
                        int32_t cv = blk[k];
                        if (cv != 0) {
                            if (take(&br, 1) && (cv & p1) == 0)
                                blk[k] = cv + (cv >= 0 ? p1 : n1);
                        } else {
                            if (r4 == 0) break;
                            r4--;
                        }
                        k++;
                    }
                    if (val) {
                        if (k > Se) return -3;
                        blk[k] = val;
                    }
                    k++;
                }
            }
            if (eobrun > 0) {
                if (br.pos > nbits) return -5; /* truncated segment */
                while (k <= Se) { /* tail: correction bits only */
                    int32_t cv = blk[k];
                    if (cv != 0) {
                        if (take(&br, 1) && (cv & p1) == 0)
                            blk[k] = cv + (cv >= 0 ? p1 : n1);
                    }
                    k++;
                }
                eobrun--;
            }
        }
    }
    return 0;
}

/* ---- JPEG decode tail at 8-bit precision: libjpeg's jidctint.c "islow"
 * IDCT and jdcolor.c's fixed-point YCbCr -> RGB, the C twins of
 * jpeg._idct_islow and jpeg._ycc_tables. Every intermediate is int64, so
 * a corrupt 16-bit DQT times a 15-bit coefficient cannot overflow, and
 * samples are clamped (T.81 A.3.1) where libjpeg wraps. ---- */
static const uint8_t ZIGZAG[64] = {
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
};

#define ISLOW_CONST_BITS 13
#define ISLOW_PASS1_BITS 2

/* One 8-point islow pass over x[0], x[step], ..., x[7 * step], written to
 * o[0], o[ostep], ... descaled by `shift` bits with rounding (jpeg._islow_1d).
 * Forced inline: as a call, its two sites run 30% slower. */
static inline __attribute__((always_inline)) void islow_1d(const int64_t *x, int step, int64_t *o, int ostep,
                            int shift)
{
    int64_t x0 = x[0], x1 = x[step], x2 = x[2 * step], x3 = x[3 * step];
    int64_t x4 = x[4 * step], x5 = x[5 * step], x6 = x[6 * step], x7 = x[7 * step];
    int64_t z1 = (x2 + x6) * 4433; /* even part */
    int64_t t2 = z1 - x6 * 15137, t3 = z1 + x2 * 6270;
    int64_t t0 = (x0 + x4) * ((int64_t)1 << ISLOW_CONST_BITS);
    int64_t t1 = (x0 - x4) * ((int64_t)1 << ISLOW_CONST_BITS);
    int64_t e10 = t0 + t3, e13 = t0 - t3, e11 = t1 + t2, e12 = t1 - t2;
    int64_t z5 = (x7 + x5 + x3 + x1) * 9633; /* odd part */
    int64_t y1 = (x7 + x1) * -7373, y2 = (x5 + x3) * -20995;
    int64_t y3 = (x7 + x3) * -16069 + z5, y4 = (x5 + x1) * -3196 + z5;
    int64_t o0 = x7 * 2446 + y1 + y3, o1 = x5 * 16819 + y2 + y4;
    int64_t o2 = x3 * 25172 + y2 + y3, o3 = x1 * 12299 + y1 + y4;
    int64_t r = (int64_t)1 << (shift - 1);
    o[0] = (e10 + o3 + r) >> shift;
    o[ostep] = (e11 + o2 + r) >> shift;
    o[2 * ostep] = (e12 + o1 + r) >> shift;
    o[3 * ostep] = (e13 + o0 + r) >> shift;
    o[4 * ostep] = (e13 - o0 + r) >> shift;
    o[5 * ostep] = (e12 - o1 + r) >> shift;
    o[6 * ostep] = (e11 - o2 + r) >> shift;
    o[7 * ostep] = (e10 - o3 + r) >> shift;
}

static inline uint8_t clamp_u8(int64_t v)
{
    return v < 0 ? 0 : v > 255 ? 255 : (uint8_t)v;
}

/* One component: coef is its (bpc * bpr) x 64 zigzag-order coefficient
 * store, qt its natural-order quantization table; writes the
 * (bpc * 8) x (bpr * 8) uint8 sample plane (unzigzag, dequantize, islow,
 * level shift, clamp). The all-zero-AC shortcuts equal the full passes. */
void jpeg_idct_plane(const int32_t *coef, const int32_t *qt, long bpr,
                     long bpc, uint8_t *out)
{
    long stride = bpr * 8;
    for (long b = 0; b < bpr * bpc; b++) {
        int64_t blk[64], ws[64], px[8];
        const int32_t *zz = coef + b * 64;
        for (int i = 0; i < 64; i++)
            blk[ZIGZAG[i]] = (int64_t)zz[i] * qt[ZIGZAG[i]];
        for (int c = 0; c < 8; c++) { /* pass 1: columns */
            const int64_t *x = blk + c;
            if (!(x[8] | x[16] | x[24] | x[32] | x[40] | x[48] | x[56])) {
                for (int k = 0; k < 8; k++)
                    ws[k * 8 + c] = x[0] * (1 << ISLOW_PASS1_BITS);
                continue;
            }
            islow_1d(x, 8, ws + c, 8, ISLOW_CONST_BITS - ISLOW_PASS1_BITS);
        }
        uint8_t *o = out + (b / bpr) * 8 * stride + (b % bpr) * 8;
        for (int r = 0; r < 8; r++, o += stride) { /* pass 2: rows */
            const int64_t *x = ws + r * 8;
            if (!(x[1] | x[2] | x[3] | x[4] | x[5] | x[6] | x[7])) {
                uint8_t v = clamp_u8(((x[0] + 16) >> (ISLOW_PASS1_BITS + 3)) + 128);
                memset(o, v, 8);
                continue;
            }
            islow_1d(x, 1, px, 1, ISLOW_CONST_BITS + ISLOW_PASS1_BITS + 3);
            for (int k = 0; k < 8; k++)
                o[k] = clamp_u8(px[k] + 128);
        }
    }
}

/* Column of a plane upsampled by f: a shift when f is a power of two. */
static inline long upsampled_col(long x, int f, int shift)
{
    return shift >= 0 ? x >> shift : x / f;
}

/* Sample planes -> (h, w, 4) RGBA: ncomp 1 (gray) or 3 (YCbCr), plane c
 * with row stride stride[c], upsampled by replication by (fx[c], fy[c])
 * (libjpeg's non-fancy upsampling), converted with jdcolor.c's
 * SCALEBITS-16 tables. The caller checks that every plane covers h x w. */
void jpeg_ycc_rgba(const uint8_t **planes, const int32_t *stride,
                   const int32_t *fx, const int32_t *fy, int ncomp,
                   long h, long w, uint8_t *out)
{
    int32_t cr_r[256], cb_b[256];
    int64_t cr_g[256], cb_g[256];
    int shift[3];
    for (int i = 0; i < 256; i++) {
        int64_t x = i - 128;
        cr_r[i] = (int32_t)((91881 * x + 32768) >> 16);
        cr_g[i] = -46802 * x;
        cb_g[i] = -22554 * x + 32768;
        cb_b[i] = (int32_t)((116130 * x + 32768) >> 16);
    }
    for (int c = 0; c < ncomp; c++)
        shift[c] = fx[c] == 1 ? 0 : fx[c] == 2 ? 1 : fx[c] == 4 ? 2 : -1;
    for (long y = 0; y < h; y++) {
        const uint8_t *p0 = planes[0] + (y / fy[0]) * stride[0];
        uint8_t *o = out + y * w * 4;
        if (ncomp == 1) {
            for (long x = 0; x < w; x++, o += 4) {
                o[0] = o[1] = o[2] = p0[upsampled_col(x, fx[0], shift[0])];
                o[3] = 255;
            }
            continue;
        }
        const uint8_t *p1 = planes[1] + (y / fy[1]) * stride[1];
        const uint8_t *p2 = planes[2] + (y / fy[2]) * stride[2];
        for (long x = 0; x < w; x++, o += 4) {
            int yy = p0[upsampled_col(x, fx[0], shift[0])];
            int cb = p1[upsampled_col(x, fx[1], shift[1])];
            int cr = p2[upsampled_col(x, fx[2], shift[2])];
            o[0] = clamp_u8(yy + cr_r[cr]);
            o[1] = clamp_u8(yy + ((cb_g[cb] + cr_g[cr]) >> 16));
            o[2] = clamp_u8(yy + cb_b[cb]);
            o[3] = 255;
        }
    }
}

/* ---- PNG scanline unfiltering (RFC 2083 §6) — row-sequential with
 * in-row left dependencies for filters 1/3/4; mod-256 via uint8 wrap.
 * stream is h*(stride+1) bytes (leading filter byte per row), out is
 * h*stride reconstructed bytes. Returns 0 or -(bad filter type). ---- */
long png_unfilter(const uint8_t *stream, long h, long stride, int bpp,
                  uint8_t *out)
{
    for (long y = 0; y < h; y++) {
        const uint8_t *raw = stream + y * (stride + 1) + 1;
        int f = raw[-1];
        uint8_t *cur = out + y * stride;
        const uint8_t *up = y ? cur - stride : 0;
        switch (f) {
        case 0:
            memcpy(cur, raw, (size_t)stride);
            break;
        case 1: /* Sub */
            for (long x = 0; x < stride; x++)
                cur[x] = (uint8_t)(raw[x] + (x >= bpp ? cur[x - bpp] : 0));
            break;
        case 2: /* Up */
            if (up)
                for (long x = 0; x < stride; x++)
                    cur[x] = (uint8_t)(raw[x] + up[x]);
            else
                memcpy(cur, raw, (size_t)stride);
            break;
        case 3: /* Average */
            for (long x = 0; x < stride; x++) {
                int a = x >= bpp ? cur[x - bpp] : 0;
                int b = up ? up[x] : 0;
                cur[x] = (uint8_t)(raw[x] + ((a + b) >> 1));
            }
            break;
        case 4: /* Paeth */
            for (long x = 0; x < stride; x++) {
                int a = x >= bpp ? cur[x - bpp] : 0;
                int b = up ? up[x] : 0;
                int c = (up && x >= bpp) ? up[x - bpp] : 0;
                int p = a + b - c;
                int pa = p >= a ? p - a : a - p;
                int pb = p >= b ? p - b : b - p;
                int pc = p >= c ? p - c : c - p;
                int pr = (pa <= pb && pa <= pc) ? a : (pb <= pc ? b : c);
                cur[x] = (uint8_t)(raw[x] + pr);
            }
            break;
        default:
            return -(long)f;
        }
    }
    return 0;
}

/* ---- TIFF 6.0 §13 LZW decode (MSB-first codes, EARLY CHANGE: width grows
 * one code sooner than GIF) — table-building is inherently sequential.
 * Mirrors tiff._lzw_decode_tiff; codes never exceed 4095 (width <= 12).
 * Returns bytes written (EOI may end the stream short of expected) or
 * negative on truncation/corrupt codes. ---- */
long tiff_lzw_decode(const uint8_t *data, long n, uint8_t *out, long expected)
{
    /* stack-local (32 KB): ctypes calls run without the GIL, so shared
     * tables would race under threads */
    int16_t prevc[4096];
    uint8_t sufx[4096], firstb[4096];
    int32_t length[4096];
    for (int i = 0; i < 256; i++) {
        prevc[i] = -1;
        sufx[i] = firstb[i] = (uint8_t)i;
        length[i] = 1;
    }
    int next = 258, width = 9, prev = -1;
    uint32_t acc = 0;
    int nbits = 0;
    long pos = 0, written = 0;
    while (written < expected) {
        while (nbits < width) {
            if (pos >= n) return -1; /* truncated */
            acc = (acc << 8) | data[pos++];
            nbits += 8;
        }
        int code = (int)((acc >> (nbits - width)) & ((1u << width) - 1u));
        nbits -= width;
        acc &= (1u << nbits) - 1u;
        if (code == 256) { next = 258; width = 9; prev = -1; continue; }
        if (code == 257) break; /* EOI */
        int entry;
        if (prev < 0) {
            if (code > 255) return -2;
            entry = code;
        } else if (code < next) {
            entry = code;
            if (next < 4096) {
                prevc[next] = (int16_t)prev;
                sufx[next] = firstb[code];
                firstb[next] = firstb[prev];
                length[next] = length[prev] + 1;
                next++;
            }
        } else if (code == next && next < 4096) {
            prevc[next] = (int16_t)prev;
            sufx[next] = firstb[prev];
            firstb[next] = firstb[prev];
            length[next] = length[prev] + 1;
            entry = next++;
        } else {
            return -2; /* corrupt code */
        }
        long l = length[entry];
        long end = written + l;
        long lim = end > expected ? expected : end;
        long i = end - 1;
        int e = entry;
        while (i >= written) {
            if (i < lim) out[i] = sufx[e];
            e = prevc[e];
            i--;
        }
        written = lim;
        prev = code;
        if (next + 1 == (1 << width) && width < 12) width++; /* early change */
    }
    return written;
}

/* ---- GIF LZW decode (LSB-first variable-width codes, deferred clear, no
 * early change) — mirrors gif._lzw_decode. Emits exactly n_pixels index
 * bytes (the final entry may be clipped). Returns 0, -1 truncated stream,
 * -2 corrupt code, -3 stream ended before n_pixels. ---- */
long gif_lzw_decode(const uint8_t *data, long n, int min_code_size,
                    uint8_t *out, long n_pixels)
{
    /* 12-bit code space: a corrupt size >11 would overflow the 4096-entry
     * tables (and <1 makes clear/end collide with roots) */
    if (min_code_size < 1 || min_code_size > 11) return -2;
    int clear = 1 << min_code_size, end = clear + 1;
    int16_t prevc[4096];
    uint8_t sufx[4096], firstb[4096];
    int32_t length[4096];
    for (int i = 0; i < clear; i++) {
        prevc[i] = -1;
        sufx[i] = firstb[i] = (uint8_t)i;
        length[i] = 1;
    }
    int next = clear + 2, width = min_code_size + 1, prev = -1;
    uint32_t acc = 0;
    int nbits = 0;
    long pos = 0, oi = 0;
    while (oi < n_pixels) {
        while (nbits < width) {
            if (pos >= n) return -1;
            acc |= (uint32_t)data[pos++] << nbits;
            nbits += 8;
        }
        int code = (int)(acc & ((1u << width) - 1u));
        acc >>= width;
        nbits -= width;
        if (code == clear) {
            next = clear + 2;
            width = min_code_size + 1;
            prev = -1;
            continue;
        }
        if (code == end) break;
        int entry;
        if (prev < 0) {
            if (code >= clear) return -2;
            entry = code;
        } else if (code < next) {
            entry = code;
            if (next < 4096) {
                prevc[next] = (int16_t)prev;
                sufx[next] = firstb[code];
                firstb[next] = firstb[prev];
                length[next] = length[prev] + 1;
                next++;
            }
        } else if (code == next && next < 4096) {
            prevc[next] = (int16_t)prev;
            sufx[next] = firstb[prev];
            firstb[next] = firstb[prev];
            length[next] = length[prev] + 1;
            entry = next++;
        } else {
            return -2;
        }
        long l = length[entry];
        long seg_end = oi + l;
        long lim = seg_end > n_pixels ? n_pixels : seg_end;
        long i = seg_end - 1;
        int e = entry;
        while (i >= oi) {
            if (i < lim) out[i] = sufx[e];
            e = prevc[e];
            i--;
        }
        oi = lim;
        prev = code;
        if (next == (1 << width) && width < 12) width++;
    }
    return oi < n_pixels ? -3 : 0;
}

/* The taps of warp.sample_bilinear on a uint8 (h, w, c) image at float32
 * source-pixel coordinates, for the fused lattice sampler below: same 4
 * taps, border zero outside the image (CLK_ADDRESS_CLAMP), same float32
 * operation order, so its samples are bit-identical to the numpy sampler
 * (built with -ffp-contract=off: a fused multiply-add would round
 * differently). */
static inline int64_t floor_i64(float v)
{
    /* numpy's floor(v).astype(int64) on x86-64: NaN and values outside
     * int64 give INT64_MIN (cvttss2si's "integer indefinite") */
    if (!(v >= -9223372036854775808.0f && v < 9223372036854775808.0f))
        return INT64_MIN;
    int64_t t = (int64_t)v; /* truncates toward zero */
    return (float)t > v ? t - 1 : t;
}

/* The four taps and fractional weights of one bilinear sample; a NULL tap
 * lies outside the image and reads as 0. */
typedef struct {
    const uint8_t *t00, *t01, *t10, *t11;
    float fx, fy;
} Taps;

static inline Taps bilinear_taps(const uint8_t *img, long h, long w, long c,
                                 float px, float py)
{
    Taps t;
    int64_t x0 = floor_i64(px), y0 = floor_i64(py);
    /* numpy: (px - x0) is float64, then cast to float32 */
    t.fx = (float)((double)px - (double)x0);
    t.fy = (float)((double)py - (double)y0);
    int inx0 = x0 >= 0 && x0 < w, inx1 = x0 + 1 >= 0 && x0 + 1 < w;
    int iny0 = y0 >= 0 && y0 < h, iny1 = y0 + 1 >= 0 && y0 + 1 < h;
    t.t00 = iny0 && inx0 ? img + (y0 * w + x0) * c : NULL;
    t.t01 = iny0 && inx1 ? img + (y0 * w + x0 + 1) * c : NULL;
    t.t10 = iny1 && inx0 ? img + ((y0 + 1) * w + x0) * c : NULL;
    t.t11 = iny1 && inx1 ? img + ((y0 + 1) * w + x0 + 1) * c : NULL;
    return t;
}

static inline float bilinear_at(const Taps *t, long k)
{
    float p00 = t->t00 ? (float)t->t00[k] : 0.0f;
    float p01 = t->t01 ? (float)t->t01[k] : 0.0f;
    float p10 = t->t10 ? (float)t->t10[k] : 0.0f;
    float p11 = t->t11 ? (float)t->t11[k] : 0.0f;
    float top = p00 + (p01 - p00) * t->fx;
    float bot = p10 + (p11 - p10) * t->fx;
    return top + (bot - top) * t->fy;
}

/* np.clip(v, 0, 255).astype(np.uint8): truncation; NaN passes the clip
 * and numpy's cast turns it into 0. */
static inline uint8_t clip_u8(float v)
{
    if (!(v >= 0.0f))
        return 0;
    return v >= 255.0f ? 255 : (uint8_t)v;
}

/* warp.sample_bilinear (the taps above) with each pixel's source
 * coordinates filled in inline from the warp lattice (warp._lattice_fill):
 * nodes_x/nodes_y are the float64 source-pixel maps at the lattice nodes,
 * (ny, nx) row-major, and (xj, xt) / (yj, yt) the per-axis cell and position
 * tables of warp._lattice_axis. The fill is the numpy separable fill's
 * float64 operation order, rounded to float32, so the samples are
 * bit-identical to filling the full px/py grids and sampling them: the
 * lattice rows (node[k, j]·(1−xt) + node[k, j+1]·xt) are computed into
 * ``rows`` (5 · out_w doubles, caller-owned) once per lattice row, as
 * numpy computes them once; each output row's float32 px and py go into
 * the last out_w doubles' worth, in a loop of their own ahead of the
 * sampling loop (faster than computing them inline). Writes float32
 * samples to outf, or, when outf is NULL, the clipped and truncated uint8
 * samples to outb; output pixel (r, q) starts at element
 * r · out_stride + q · c, so a caller can warp into a larger
 * (tile-padded) array.
 *
 * Two pixel classes skip the generic per-tap path. A pixel whose taps all
 * lie outside the image samples 0 (NaN coordinates fail the test too; at
 * float32 output a non-finite coordinate keeps the generic path, whose
 * weights turn it into NaN). A 4-channel pixel whose taps all lie inside
 * lerps its four channels in one SSE2 register with the generic path's
 * float32 operations in the same order; without SSE2 it takes the
 * generic path. */
void warp_lattice_bilinear_u8(const uint8_t *img, long h, long w, long c,
                              const double *nodes_x, const double *nodes_y, long nx,
                              const int64_t *xj, const double *xt, long out_w,
                              const int64_t *yj, const double *yt, long out_h,
                              double *rows, long out_stride, float *outf, uint8_t *outb)
{
    double *rax = rows, *rbx = rows + out_w, *ray = rows + 2 * out_w, *rby = rows + 3 * out_w;
    float *fxs = (float *)(rows + 4 * out_w), *fys = fxs + out_w;
    const double wd = (double)w, hd = (double)h;
    int64_t cached = -1;
#if defined(__SSE2__)
    const __m128i zero = _mm_setzero_si128();
    const __m128 lo = _mm_setzero_ps(), hi = _mm_set1_ps(255.0f);
#endif
    for (long r = 0; r < out_h; r++) {
        if (yj[r] != cached) {
            cached = yj[r];
            const double *ax = nodes_x + cached * nx, *bx = ax + nx;
            const double *ay = nodes_y + cached * nx, *by = ay + nx;
            for (long q = 0; q < out_w; q++) {
                const int64_t j = xj[q];
                const double tx = xt[q], sx = 1.0 - tx;
                rax[q] = ax[j] * sx + ax[j + 1] * tx;
                rbx[q] = bx[j] * sx + bx[j + 1] * tx;
                ray[q] = ay[j] * sx + ay[j + 1] * tx;
                rby[q] = by[j] * sx + by[j + 1] * tx;
            }
        }
        const double ty = yt[r], sy = 1.0 - ty;
        for (long q = 0; q < out_w; q++) {
            /* rows[yj]·(1−yt) + rows[yj+1]·yt */
            fxs[q] = (float)(rax[q] * sy + rbx[q] * ty);
            fys[q] = (float)(ray[q] * sy + rby[q] * ty);
        }
        for (long q = 0; q < out_w; q++) {
            const float px = fxs[q], py = fys[q];
            const long o = r * out_stride + q * c;
            if (!(px >= -1.0f && py >= -1.0f && (double)px < wd && (double)py < hd)) {
                if (!outf) {
                    if (c == 4) {
                        const uint32_t z = 0;
                        memcpy(outb + o, &z, 4);
                    } else
                        memset(outb + o, 0, (size_t)c);
                    continue;
                }
                if (isfinite(px) && isfinite(py)) {
                    memset(outf + o, 0, (size_t)c * sizeof(float));
                    continue;
                }
            }
#if defined(__SSE2__)
            else if (c == 4 && px >= 0.0f && py >= 0.0f
                     && (double)px < wd - 1.0 && (double)py < hd - 1.0) {
                const long x0 = (long)px, y0 = (long)py; /* floor: px, py >= 0 */
                const __m128 fx = _mm_set1_ps((float)((double)px - (double)x0));
                const __m128 fy = _mm_set1_ps((float)((double)py - (double)y0));
                const uint8_t *t0 = img + (y0 * w + x0) * 4, *t1 = t0 + w * 4;
                /* taps (x0, y) and (x0 + 1, y) are 8 adjacent bytes */
                const __m128i r0 = _mm_unpacklo_epi8(_mm_loadl_epi64((const __m128i *)t0), zero);
                const __m128i r1 = _mm_unpacklo_epi8(_mm_loadl_epi64((const __m128i *)t1), zero);
                const __m128 p[4] = {_mm_cvtepi32_ps(_mm_unpacklo_epi16(r0, zero)),
                                     _mm_cvtepi32_ps(_mm_unpackhi_epi16(r0, zero)),
                                     _mm_cvtepi32_ps(_mm_unpacklo_epi16(r1, zero)),
                                     _mm_cvtepi32_ps(_mm_unpackhi_epi16(r1, zero))};
                const __m128 top = _mm_add_ps(p[0], _mm_mul_ps(_mm_sub_ps(p[1], p[0]), fx));
                const __m128 bot = _mm_add_ps(p[2], _mm_mul_ps(_mm_sub_ps(p[3], p[2]), fx));
                const __m128 s = _mm_add_ps(top, _mm_mul_ps(_mm_sub_ps(bot, top), fy));
                if (outf) {
                    _mm_storeu_ps(outf + o, s);
                } else {
                    const __m128i i32 = _mm_cvttps_epi32(_mm_min_ps(_mm_max_ps(s, lo), hi));
                    const int32_t b = _mm_cvtsi128_si32(
                        _mm_packus_epi16(_mm_packs_epi32(i32, zero), zero));
                    memcpy(outb + o, &b, 4);
                }
                continue;
            }
#endif
            Taps t = bilinear_taps(img, h, w, c, px, py);
            if (outf)
                for (long k = 0; k < c; k++)
                    outf[o + k] = bilinear_at(&t, k);
            else
                for (long k = 0; k < c; k++)
                    outb[o + k] = clip_u8(bilinear_at(&t, k));
        }
    }
}
