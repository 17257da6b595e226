/* Optional C twins for the in-repo codecs' sequential hot loops: JPEG
 * baseline/progressive entropy decode (ITU T.81 §F.2/§G.1.2), FLAC Rice /
 * LPC / CRC-16 (RFC 9639), PNG scanline unfiltering (RFC 2083 §6), and the
 * TIFF (6.0 §13, early change) and GIF LZW variants — plus the bilinear
 * warp sampler, the warp kernel's per-pixel hot loop.
 *
 * Entropy/prefix decoding is inherently sequential — one code at a time —
 * so it cannot be vectorized with numpy; each function here is the same
 * algorithm as its pure-Python counterpart, bit-exact, compiled on first
 * use by projcl_ray/fastcodec.py with the system C compiler. The Python
 * loops remain the always-available fallbacks and parity oracles (tests
 * pin bit-equality).
 *
 * Plain C ABI only (ctypes-loaded): no Python.h, no allocation; the caller
 * owns every buffer. Entropy segments arrive unstuffed (0xFF00 removed) and
 * padded with >= 64 zero bytes; every decode loop additionally bounds its
 * bit position against the segment length so corrupt data errors instead
 * of reading out of bounds.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

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

/* ---- FLAC (RFC 9639) hot loops — same algorithms as projcl_ray/flac.py,
 * bit-exact; Rice coding and LPC restoration are sample-sequential, the
 * two stages numpy can't vectorize. ---- */

/* Decode n Rice(k) residuals (unary quotient + k remainder bits,
 * un-zigzagged) from an MSB-first bitstream. Returns the new bit position
 * or -1 on truncation. */
long flac_rice(const uint8_t *data, long nbits, long pos,
               long n, int k, int64_t *out)
{
    for (long i = 0; i < n; i++) {
        long q = 0;
        while (pos < nbits && !((data[pos >> 3] >> (7 - (pos & 7))) & 1)) {
            pos++;
            q++;
        }
        if (pos >= nbits) return -1;
        pos++; /* the terminating 1-bit */
        uint64_t u = (uint64_t)q << k;
        if (k) {
            if (pos + k > nbits) return -1;
            uint64_t rem = 0;
            for (int b = 0; b < k; b++)
                rem = (rem << 1)
                    | ((data[(pos + b) >> 3] >> (7 - ((pos + b) & 7))) & 1u);
            pos += k;
            u |= rem;
        }
        out[i] = (int64_t)(u >> 1) ^ -(int64_t)(u & 1);
    }
    return pos;
}

/* x[i] = res[i] + (sum_j coefs[j] * x[i-1-j]) >> shift, exact integer math
 * (accumulator bounded by order * 2^precision * 2^bps << 2^63). out must
 * have room for order + n samples; the first order are the warmup. */
void flac_lpc_restore(const int64_t *warm, int order, const int64_t *res,
                      long n, const int32_t *coefs, int shift, int64_t *out)
{
    for (int i = 0; i < order; i++) out[i] = warm[i];
    for (long i = 0; i < n; i++) {
        int64_t acc = 0;
        const int64_t *x = out + order + i;
        for (int j = 0; j < order; j++)
            acc += (int64_t)coefs[j] * x[-1 - j];
        out[order + i] = res[i] + (acc >> shift);
    }
}

/* CRC-16/BUYPASS (poly 0x8005, MSB-first, init 0) — RFC 9639 frame CRC.
 * Byte-sequential; the table mirrors flac._CRC16. */
static uint16_t _crc16_tbl[256];

/* runs at dlopen, before any ctypes call can race (ctypes releases the
 * GIL, so lazy init with a plain flag would be a data race) */
__attribute__((constructor)) static void _crc16_init(void)
{
    for (int i = 0; i < 256; i++) {
        uint32_t c = (uint32_t)i << 8;
        for (int b = 0; b < 8; b++)
            c = (c & 0x8000u) ? ((c << 1) ^ 0x8005u) : (c << 1);
        _crc16_tbl[i] = (uint16_t)c;
    }
}

long flac_crc16(const uint8_t *data, long n)
{
    uint16_t c = 0;
    for (long i = 0; i < n; i++)
        c = _crc16_tbl[(c >> 8) ^ data[i]] ^ (uint16_t)(c << 8);
    return c;
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

/* ---- Baseline JPEG entropy ENCODE (T.81 F.1.2) — same bit/stuffing/
 * flush semantics as jpeg._BitWriter + _encode_block, bit-exact. ---- */
typedef struct {
    uint8_t *o;
    long n, cap;
    uint32_t acc;
    int nbits;
} BitWriterC;

static inline int bw_put(BitWriterC *w, uint32_t code, int len)
{
    w->acc = (w->acc << len) | (code & ((len == 32 ? 0xFFFFFFFFu
                                                   : (1u << len) - 1u)));
    w->nbits += len;
    while (w->nbits >= 8) {
        uint8_t byte = (uint8_t)((w->acc >> (w->nbits - 8)) & 0xFFu);
        if (w->n + 2 > w->cap) return -1;
        w->o[w->n++] = byte;
        if (byte == 0xFF) w->o[w->n++] = 0x00; /* byte stuffing */
        w->nbits -= 8;
    }
    w->acc &= (1u << w->nbits) - 1u;
    return 0;
}

static inline int bitlen_u32(uint32_t v)
{
    return v ? 32 - __builtin_clz(v) : 0;
}

/* Encode one restart-free segment of a baseline scan into out (stuffed,
 * flushed with 1-bit padding). Per-component code tables are 256-entry
 * (code uint16, length uint8; length 0 = symbol absent). DC predictors
 * reset at segment start, matching the RSTn contract. Returns bytes
 * written, -1 on buffer overflow, -2 on an unrepresentable symbol. */
long jpeg_encode_segment(
    const int32_t **stores,
    long m_start, long m_count, long mcus_x, int interleaved, int ncomp,
    const uint16_t **dcc, const uint8_t **dcl,
    const uint16_t **acc, const uint8_t **acl,
    const int32_t *vv, const int32_t *hh,
    const int32_t *bpr, const int32_t *wib,
    uint8_t *out, long cap)
{
    BitWriterC w = {out, 0, cap, 0, 0};
    int32_t preds[4] = {0, 0, 0, 0};
    for (int c = 0; c < ncomp; c++)
        if (vv[c] < 1 || vv[c] > 4 || hh[c] < 1 || hh[c] > 4) return -2;
    for (long mi = 0; mi < m_count; mi++) {
        long m = m_start + mi;
        for (int c = 0; c < ncomp; c++) {
            long blist[64];
            int nb = block_list(m, mcus_x, interleaved, vv[c], hh[c],
                                bpr[c], wib[c], blist);
            for (int bi = 0; bi < nb; bi++) {
                const int32_t *zz = stores[c] + blist[bi] * 64;
                int32_t dc = zz[0];
                int32_t diff = dc - preds[c];
                preds[c] = dc;
                int size = bitlen_u32((uint32_t)(diff < 0 ? -diff : diff));
                if (dcl[c][size] == 0) return -2;
                if (bw_put(&w, dcc[c][size], dcl[c][size])) return -1;
                if (size) {
                    uint32_t bitsval = (uint32_t)(diff > 0
                        ? diff : diff + (1 << size) - 1);
                    if (bw_put(&w, bitsval, size)) return -1;
                }
                int prev = 0;
                for (int k = 1; k < 64; k++) {
                    int32_t v = zz[k];
                    if (v == 0) continue;
                    int run = k - prev - 1;
                    while (run >= 16) {
                        if (acl[c][0xF0] == 0) return -2;
                        if (bw_put(&w, acc[c][0xF0], acl[c][0xF0])) return -1;
                        run -= 16;
                    }
                    size = bitlen_u32((uint32_t)(v < 0 ? -v : v));
                    int sym = (run << 4) | size;
                    if (acl[c][sym] == 0) return -2;
                    if (bw_put(&w, acc[c][sym], acl[c][sym])) return -1;
                    if (bw_put(&w, (uint32_t)(v > 0 ? v : v + (1 << size) - 1),
                               size)) return -1;
                    prev = k;
                }
                if (prev != 63) {
                    if (acl[c][0x00] == 0) return -2;
                    if (bw_put(&w, acc[c][0x00], acl[c][0x00])) return -1;
                }
            }
        }
    }
    if (w.nbits) {
        if (bw_put(&w, 0x7F, 8 - w.nbits)) return -1; /* 1-bit pad (flush) */
    }
    return w.n;
}

/* ---- Progressive JPEG entropy ENCODE (T.81 G.1.2) — the three scan
 * emitters of jpeg._emit_progressive, each usable in two modes:
 * write_mode=0 counts Huffman symbol frequencies (the Annex-K stats pass;
 * raw bits don't matter), write_mode=1 writes codes + bits. Bit-exact with
 * _StatSink/_WriteSink driving the pure emitters. ---- */

/* DC scan, first (Ah=0) or refinement. freq/code/clen are PER COMPONENT
 * (components sharing a table pass the same pointer). Returns bytes
 * written (write mode, flushed) / 0 (stats), negative on error. */
long jpeg_prog_enc_dc(
    const int32_t **stores, long mcus_x, long mcus_y,
    int interleaved, int ncomp, int Ah, int Al,
    const int32_t *vv, const int32_t *hh,
    const int32_t *bpr, const int32_t *wib, const int32_t *hib,
    int write_mode, int64_t **freq,
    const uint16_t **code, const uint8_t **clen,
    uint8_t *out, long cap)
{
    BitWriterC w = {out, 0, cap, 0, 0};
    int32_t preds[4] = {0, 0, 0, 0};
    for (int c = 0; c < ncomp; c++)
        if (vv[c] < 1 || vv[c] > 4 || hh[c] < 1 || hh[c] > 4) return -2;
    long units = interleaved ? mcus_x * mcus_y : (long)wib[0] * hib[0];
    for (long m = 0; m < units; m++) {
        for (int c = 0; c < ncomp; c++) {
            long blist[64];
            int nb = block_list(m, mcus_x, interleaved, vv[c], hh[c],
                                bpr[c], wib[c], blist);
            for (int bi = 0; bi < nb; bi++) {
                int32_t dc = stores[c][blist[bi] * 64];
                if (Ah == 0) {
                    int32_t v = dc >> Al; /* arithmetic shift, G.1.2.1 */
                    int32_t diff = v - preds[c];
                    preds[c] = v;
                    int size = bitlen_u32((uint32_t)(diff < 0 ? -diff : diff));
                    if (write_mode) {
                        if (clen[c][size] == 0) return -2;
                        if (bw_put(&w, code[c][size], clen[c][size]))
                            return -1;
                        if (size && bw_put(&w, (uint32_t)(diff >= 0
                                ? diff : diff + (1 << size) - 1), size))
                            return -1;
                    } else {
                        freq[c][size]++;
                    }
                } else if (write_mode) {
                    if (bw_put(&w, (uint32_t)((dc >> Al) & 1), 1)) return -1;
                }
            }
        }
    }
    if (!write_mode) return 0;
    if (w.nbits && bw_put(&w, 0x7F, 8 - w.nbits)) return -1;
    return w.n;
}

/* First AC scan for one band: run/size with EOB-run accumulation. */
long jpeg_prog_enc_ac_first(
    const int32_t *store, long wib, long hib, long bpr,
    int Ss, int Se, int Al,
    int write_mode, int64_t *freq,
    const uint16_t *code, const uint8_t *clen,
    uint8_t *out, long cap)
{
    BitWriterC w = {out, 0, cap, 0, 0};
    long eobrun = 0;
#define AC_SYM(s) do { \
        if (write_mode) { \
            if (clen[(s)] == 0) return -2; \
            if (bw_put(&w, code[(s)], clen[(s)])) return -1; \
        } else freq[(s)]++; \
    } while (0)
#define AC_BITS(v, n) do { \
        if (write_mode && (n) && bw_put(&w, (uint32_t)(v), (n))) return -1; \
    } while (0)
#define FLUSH_EOB() do { \
        if (eobrun > 0) { \
            int nb_ = bitlen_u32((uint32_t)eobrun) - 1; \
            AC_SYM(nb_ << 4); \
            AC_BITS(eobrun & ((1L << nb_) - 1), nb_); \
            eobrun = 0; \
        } \
    } while (0)
    for (long row = 0; row < hib; row++) {
        for (long col = 0; col < wib; col++) {
            const int32_t *zz = store + (row * bpr + col) * 64;
            int run = 0;
            for (int k = Ss; k <= Se; k++) {
                int32_t t = zz[k];
                t = t >= 0 ? (t >> Al) : -((-t) >> Al);
                if (t == 0) { run++; continue; }
                FLUSH_EOB();
                while (run > 15) { AC_SYM(0xF0); run -= 16; }
                int size = bitlen_u32((uint32_t)(t < 0 ? -t : t));
                AC_SYM((run << 4) | size);
                AC_BITS(t >= 0 ? t : t + (1 << size) - 1, size);
                run = 0;
            }
            if (run > 0) {
                eobrun++;
                if (eobrun == 0x7FFF) FLUSH_EOB();
            }
        }
    }
    FLUSH_EOB();
    if (!write_mode) return 0;
    if (w.nbits && bw_put(&w, 0x7F, 8 - w.nbits)) return -1;
    return w.n;
}

/* AC refinement scan: correction bits buffered across ZRL/EOB boundaries
 * (G.1.2.3 / encode_mcu_AC_refine). ``be`` is caller scratch for the
 * correction bits riding a pending EOB run (>= wib*hib*64 bytes). */
long jpeg_prog_enc_ac_refine(
    const int32_t *store, long wib, long hib, long bpr,
    int Ss, int Se, int Al,
    int write_mode, int64_t *freq,
    const uint16_t *code, const uint8_t *clen,
    uint8_t *be, long be_cap,
    uint8_t *out, long cap)
{
    BitWriterC w = {out, 0, cap, 0, 0};
    long eobrun = 0, be_n = 0;
#define RFLUSH_EOB() do { \
        if (eobrun > 0) { \
            int nb_ = bitlen_u32((uint32_t)eobrun) - 1; \
            AC_SYM(nb_ << 4); \
            AC_BITS(eobrun & ((1L << nb_) - 1), nb_); \
            eobrun = 0; \
        } \
        for (long bb_ = 0; bb_ < be_n; bb_++) AC_BITS(be[bb_], 1); \
        be_n = 0; \
    } while (0)
    for (long row = 0; row < hib; row++) {
        for (long col = 0; col < wib; col++) {
            const int32_t *zz = store + (row * bpr + col) * 64;
            int32_t absv[64];
            int eob = 0;
            for (int k = Ss; k <= Se; k++) {
                int32_t t = zz[k];
                t = (t < 0 ? -t : t) >> Al;
                absv[k] = t;
                if (t == 1) eob = k;
            }
            int r = 0;
            uint8_t br[64];
            int br_n = 0;
            for (int k = Ss; k <= Se; k++) {
                int32_t t = absv[k];
                if (t == 0) { r++; continue; }
                while (r > 15 && k <= eob) {
                    RFLUSH_EOB();
                    AC_SYM(0xF0);
                    r -= 16;
                    for (int bb = 0; bb < br_n; bb++) AC_BITS(br[bb], 1);
                    br_n = 0;
                }
                if (t > 1) { br[br_n++] = (uint8_t)(t & 1); continue; }
                RFLUSH_EOB();
                AC_SYM((r << 4) | 1);
                AC_BITS(zz[k] >= 0 ? 1 : 0, 1);
                for (int bb = 0; bb < br_n; bb++) AC_BITS(br[bb], 1);
                br_n = 0;
                r = 0;
            }
            if (r > 0 || br_n) {
                eobrun++;
                if (be_n + br_n > be_cap) return -3;
                for (int bb = 0; bb < br_n; bb++) be[be_n++] = br[bb];
                if (eobrun == 0x7FFF) RFLUSH_EOB();
            }
        }
    }
    RFLUSH_EOB();
    if (!write_mode) return 0;
    if (w.nbits && bw_put(&w, 0x7F, 8 - w.nbits)) return -1;
    return w.n;
}
#undef AC_SYM
#undef AC_BITS
#undef FLUSH_EOB
#undef RFLUSH_EOB

/* ---- LZW ENCODE, TIFF and GIF variants — table building is input-
 * sequential. ``table`` is caller scratch (4096*256 int16, keyed
 * prev_code*256+byte). Byte-exact with _lzw_encode_tiff / gif._lzw_encode
 * (which stay the fallbacks and parity oracles). ---- */

long tiff_lzw_encode(const uint8_t *data, long n, int16_t *table,
                     uint8_t *out, long cap)
{
    uint32_t acc = 0;
    int nbits = 0;
    long on = 0;
#define EMIT_MSB(code_, w_) do { \
        acc = (acc << (w_)) | (uint32_t)(code_); \
        nbits += (w_); \
        while (nbits >= 8) { \
            if (on >= cap) return -1; \
            out[on++] = (uint8_t)((acc >> (nbits - 8)) & 0xFFu); \
            nbits -= 8; \
            acc &= (1u << nbits) - 1u; \
        } \
    } while (0)
    memset(table, 0xFF, 4096 * 256 * sizeof(int16_t));
    int next = 258, width = 9, prev = -1;
    EMIT_MSB(256, width); /* clear */
    for (long i = 0; i < n; i++) {
        int b = data[i];
        if (prev < 0) { prev = b; continue; }
        int16_t hit = table[prev * 256 + b];
        if (hit >= 0) { prev = hit; continue; }
        EMIT_MSB(prev, width);
        table[prev * 256 + b] = (int16_t)next;
        next++;
        /* early change: decoder grows at len==2^w-1, we are one ahead */
        if (next == (1 << width) && width < 12) width++;
        if (next == 4094) { /* re-clear before the table tops out */
            EMIT_MSB(256, width);
            memset(table, 0xFF, 4096 * 256 * sizeof(int16_t));
            next = 258;
            width = 9;
        }
        prev = b;
    }
    if (prev >= 0) EMIT_MSB(prev, width);
    EMIT_MSB(257, width); /* EOI */
    if (nbits) {
        if (on >= cap) return -1;
        out[on++] = (uint8_t)((acc << (8 - nbits)) & 0xFFu);
    }
    return on;
#undef EMIT_MSB
}

long gif_lzw_encode(const uint8_t *data, long n, int min_code_size,
                    int16_t *table, uint8_t *out, long cap)
{
    int clear = 1 << min_code_size, end = clear + 1;
    uint32_t acc = 0;
    int nbits = 0;
    long on = 0;
#define EMIT_LSB(code_, w_) do { \
        acc |= (uint32_t)(code_) << nbits; \
        nbits += (w_); \
        while (nbits >= 8) { \
            if (on >= cap) return -1; \
            out[on++] = (uint8_t)(acc & 0xFFu); \
            acc >>= 8; \
            nbits -= 8; \
        } \
    } while (0)
    memset(table, 0xFF, 4096 * 256 * sizeof(int16_t));
    int next = end + 1, width = min_code_size + 1, prev = -1;
    EMIT_LSB(clear, width);
    for (long i = 0; i < n; i++) {
        int b = data[i];
        if (prev < 0) { prev = b; continue; }
        int16_t hit = table[prev * 256 + b];
        if (hit >= 0) { prev = hit; continue; }
        EMIT_LSB(prev, width);
        if (next < 4096) {
            table[prev * 256 + b] = (int16_t)next;
            if (next == (1 << width) && width < 12) width++;
            next++;
        } else { /* table full: re-clear */
            EMIT_LSB(clear, width);
            memset(table, 0xFF, 4096 * 256 * sizeof(int16_t));
            next = end + 1;
            width = min_code_size + 1;
        }
        prev = b;
    }
    if (prev >= 0) EMIT_LSB(prev, width);
    EMIT_LSB(end, width);
    if (nbits) {
        if (on >= cap) return -1;
        out[on++] = (uint8_t)(acc & 0xFFu);
    }
    return on;
#undef EMIT_LSB
}

/* ------------------------------------------------------------------ */
/* IMA/DVI ADPCM (WAV format 0x11): the predictor/step-index chain is
 * value-sequential within a block; blocks are independent rows here.
 * Same reference algorithm as media._ima_step_nibbles / _ima_encode —
 * nibble-exact (parity pinned in pytest). */

static const int32_t IMA_STEPS[89] = {
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37, 41,
    45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173, 190,
    209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658, 724,
    796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066, 2272,
    2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894, 6484, 7132,
    7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289, 16818, 18500,
    20350, 22385, 24623, 27086, 29794, 32767};
static const int32_t IMA_ADJ[8] = {-1, -1, -1, -1, 2, 4, 6, 8};

static inline void ima_step(int nib, int32_t *pred, int32_t *idx)
{
    int32_t step = IMA_STEPS[*idx];
    int32_t diff = step >> 3;
    if (nib & 1) diff += step >> 2;
    if (nib & 2) diff += step >> 1;
    if (nib & 4) diff += step;
    int32_t p = *pred + ((nib & 8) ? -diff : diff);
    if (p < -32768) p = -32768;
    if (p > 32767) p = 32767;
    *pred = p;
    int32_t i = *idx + IMA_ADJ[nib & 7];
    if (i < 0) i = 0;
    if (i > 88) i = 88;
    *idx = i;
}

/* flat: rows x spb int32 PCM; idx0: per-row initial step index;
 * nibs out: rows x (spb-1). Greedy reference quantizer. */
void ima_encode_rows(const int32_t *flat, long rows, long spb,
                     const int32_t *idx0, uint8_t *nibs)
{
    for (long r = 0; r < rows; r++) {
        const int32_t *x = flat + r * spb;
        uint8_t *o = nibs + r * (spb - 1);
        int32_t pred = x[0], idx = idx0[r];
        for (long t = 0; t + 1 < spb; t++) {
            int32_t step = IMA_STEPS[idx];
            int32_t diff = x[t + 1] - pred;
            int nib = diff < 0 ? 8 : 0;
            int32_t ad = diff < 0 ? -diff : diff;
            if (ad >= step) { nib |= 4; ad -= step; }
            if (ad >= (step >> 1)) { nib |= 2; ad -= step >> 1; }
            if (ad >= (step >> 2)) nib |= 1;
            o[t] = (uint8_t)nib;
            ima_step(nib, &pred, &idx);
        }
    }
}

/* nibs: rows x t_steps; pred0/idx0: per-row initial state from the block
 * headers; out: rows x (t_steps+1) int16 (sample 0 = predictor). */
void ima_decode_rows(const uint8_t *nibs, long rows, long t_steps,
                     const int32_t *pred0, const int32_t *idx0, int16_t *out)
{
    for (long r = 0; r < rows; r++) {
        const uint8_t *nb = nibs + r * t_steps;
        int16_t *o = out + r * (t_steps + 1);
        int32_t pred = pred0[r], idx = idx0[r];
        o[0] = (int16_t)pred;
        for (long t = 0; t < t_steps; t++) {
            ima_step(nb[t], &pred, &idx);
            o[t + 1] = (int16_t)pred;
        }
    }
}

/* ------------------------------------------------------------------ */
/* FLAC encode residual planning (flac._plan_residual, whole plan): pick
 * partition order + per-partition Rice-vs-raw-escape coding by exact
 * coded size — identical selection (same tie-breaks) to the pure numpy
 * path, so the encoded bytes are unchanged; this just replaces ~27k tiny
 * numpy dispatches per frame with one C pass. kinds[p]: 0 = rice (vals[p]
 * = k), 1 = escape (vals[p] = bit width). Returns total bits, or -1 when
 * the block is not partitionable (caller raises). */
long flac_plan_full(const int64_t *res, long n, long bs, int order,
                    uint8_t *kinds, int32_t *vals, int32_t *porder_out)
{
    int pmax = -1;
    for (int po = 0; po < 7; po++) {
        if (bs % (1L << po) || (bs >> po) <= order) break;
        pmax = po;
    }
    if (pmax < 0) return -1;
    long P = 1L << pmax;
    /* K = min(30, max(1, bit_length(max u) + 1)) */
    uint64_t umax = 0;
    for (long i = 0; i < n; i++) {
        int64_t r = res[i];
        uint64_t u = ((uint64_t)r << 1) ^ (uint64_t)(r >> 63);
        if (u > umax) umax = u;
    }
    int bl = 0;
    for (uint64_t m = umax; m; m >>= 1) bl++;
    int K = bl + 1;
    if (K < 1) K = 1;
    if (K > 30) K = 30;
    /* finest-partition stats: ssum[k][p], max/min/nonzero of raw res */
    int64_t ssum[30][64], fmx[64], fmn[64], fnz[64];
    for (long p = 0; p < P; p++) {
        long lo = p == 0 ? 0 : (bs >> pmax) * p - order;
        long hi = p + 1 < P ? (bs >> pmax) * (p + 1) - order : n;
        int64_t mx = INT64_MIN, mn = INT64_MAX, nz = 0;
        for (int k = 0; k < K; k++) ssum[k][p] = 0;
        for (long i = lo; i < hi; i++) {
            int64_t r = res[i];
            uint64_t u = ((uint64_t)r << 1) ^ (uint64_t)(r >> 63);
            for (int k = 0; k < K; k++) ssum[k][p] += (int64_t)(u >> k);
            if (r > mx) mx = r;
            if (r < mn) mn = r;
            nz += r != 0;
        }
        fmx[p] = mx;
        fmn[p] = mn;
        fnz[p] = nz;
    }
    long best_total = -1;
    int best_po = 0;
    uint8_t cand_k[64];
    int32_t cand_v[64];
    for (int po = 0; po <= pmax; po++) {
        long nparts = 1L << po, g = P / nparts, L = bs >> po;
        long total = 4 + 5 * nparts;
        for (long p = 0; p < nparts; p++) {
            long npart = L - (p == 0 ? order : 0);
            /* best Rice k: fold the finest sums over this group */
            long rice_c = -1;
            int k_best = 0;
            for (int k = 0; k < K; k++) {
                int64_t s = 0;
                for (long j = 0; j < g; j++) s += ssum[k][p * g + j];
                long c = (long)s + (long)(k + 1) * npart;
                if (rice_c < 0 || c < rice_c) { rice_c = c; k_best = k; }
            }
            int64_t mx = INT64_MIN, mn = INT64_MAX, nz = 0;
            for (long j = 0; j < g; j++) {
                if (fmx[p * g + j] > mx) mx = fmx[p * g + j];
                if (fmn[p * g + j] < mn) mn = fmn[p * g + j];
                nz += fnz[p * g + j];
            }
            /* escape width: bit_length(max(mx+1, -mn, 1) - 1) + 1 if any
             * nonzero sample, else 0 */
            int w = 0;
            if (nz) {
                int64_t m = mx + 1 > -mn ? mx + 1 : -mn;
                if (m < 1) m = 1;
                m -= 1;
                int b = 0;
                for (uint64_t q = (uint64_t)m; q; q >>= 1) b++;
                w = b + 1;
            }
            long esc_c = 5 + npart * (long)w;
            if (esc_c < rice_c && w <= 31) {
                cand_k[p] = 1;
                cand_v[p] = w;
                total += esc_c;
            } else {
                cand_k[p] = 0;
                cand_v[p] = k_best;
                total += rice_c;
            }
        }
        if (best_total < 0 || total < best_total) {
            best_total = total;
            best_po = po;
            for (long p = 0; p < nparts; p++) {
                kinds[p] = cand_k[p];
                vals[p] = cand_v[p];
            }
        }
    }
    *porder_out = best_po;
    return best_total;
}

/* Bilinear warp sampler for uint8 (h, w, c) images at float32 source-pixel
 * coordinates: the C twin of warp.sample_bilinear. Same 4 taps, border
 * zero outside the image (CLK_ADDRESS_CLAMP), same float32 operation
 * order, so the output is bit-identical to the numpy sampler (built with
 * -ffp-contract=off: a fused multiply-add would round differently). */
static inline int64_t floor_i64(float v)
{
    /* numpy's floor(v).astype(int64) on x86-64: NaN and values outside
     * int64 give INT64_MIN (cvttss2si's "integer indefinite") */
    if (!(v >= -9223372036854775808.0f && v < 9223372036854775808.0f))
        return INT64_MIN;
    int64_t t = (int64_t)v; /* truncates toward zero */
    return (float)t > v ? t - 1 : t;
}

void warp_bilinear_u8(const uint8_t *img, long h, long w, long c,
                      const float *px, const float *py, long n, float *out)
{
    for (long i = 0; i < n; i++) {
        int64_t x0 = floor_i64(px[i]), y0 = floor_i64(py[i]);
        /* numpy: (px - x0) is float64, then cast to float32 */
        float fx = (float)((double)px[i] - (double)x0);
        float fy = (float)((double)py[i] - (double)y0);
        int inx0 = x0 >= 0 && x0 < w, inx1 = x0 + 1 >= 0 && x0 + 1 < w;
        int iny0 = y0 >= 0 && y0 < h, iny1 = y0 + 1 >= 0 && y0 + 1 < h;
        const uint8_t *t00 = iny0 && inx0 ? img + (y0 * w + x0) * c : NULL;
        const uint8_t *t01 = iny0 && inx1 ? img + (y0 * w + x0 + 1) * c : NULL;
        const uint8_t *t10 = iny1 && inx0 ? img + ((y0 + 1) * w + x0) * c : NULL;
        const uint8_t *t11 = iny1 && inx1 ? img + ((y0 + 1) * w + x0 + 1) * c : NULL;
        float *o = out + i * c;
        for (long k = 0; k < c; k++) {
            float p00 = t00 ? (float)t00[k] : 0.0f;
            float p01 = t01 ? (float)t01[k] : 0.0f;
            float p10 = t10 ? (float)t10[k] : 0.0f;
            float p11 = t11 ? (float)t11[k] : 0.0f;
            float top = p00 + (p01 - p00) * fx;
            float bot = p10 + (p11 - p10) * fx;
            o[k] = top + (bot - top) * fy;
        }
    }
}
