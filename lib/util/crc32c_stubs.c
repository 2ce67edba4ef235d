/* CRC32C (Castagnoli) kernels behind Repro_util.Crc32c.

   Three kernels compute the same function: the raw (pre-inverted) CRC
   register is folded over a byte range with the reflected polynomial
   0x82F63B78, so every stored checksum is the same whichever runs.

   - vpclmul512: four 512-bit accumulators folded with the AVX-512
     VPCLMULQDQ carry-less multiply, 256 bytes per loop iteration.
   - pclmul128: four 128-bit accumulators folded with PCLMULQDQ, 64 bytes
     per loop iteration.
   - slice8: a portable slice-by-8 table loop (eight 256-entry tables,
     one 8-byte step per iteration).

   Both x86 kernels run slices shorter than one fold block through the
   SSE4.2 `crc32` instruction, 8 bytes per instruction, and end a fold
   with two of them (see "Folding" below).

   The kernel is chosen once, at first use: vpclmul512 when the build
   targets x86-64 and CPUID and XCR0 report AVX-512F/BW/VL, VPCLMULQDQ,
   PCLMULQDQ and SSE4.2 with the ZMM state enabled; pclmul128 when they
   report PCLMULQDQ and SSE4.2; slice8 otherwise.

   Every kernel also has a copying form: it stores each block it loads
   to a destination, so a slice is copied and checksummed in one pass.

   The OCaml side bounds-checks every slice before calling in; these
   stubs trust [pos] and [len]. They neither allocate nor raise, hence
   [@@noalloc] and untagged integer arguments in native code. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CRC32C_HAVE_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

#define CRC32C_POLY 0x82F63B78u

/* ---------------------------------------------------------------- */
/* Portable slice-by-8 */

/* Table 0 is the classic byte table; table k advances a byte through k
   further zero bytes, so eight lookups fold one 8-byte block. */
static uint32_t table[8][256];
static int table_ready = 0;

static void init_table(void)
{
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? (c >> 1) ^ CRC32C_POLY : c >> 1;
    table[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int n = 0; n < 256; n++)
      table[k][n] = (table[k - 1][n] >> 8) ^ table[0][table[k - 1][n] & 0xFF];
  table_ready = 1;
}

static uint32_t load_le32(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

static uint32_t crc_slice8(uint32_t crc, const unsigned char *p, size_t n)
{
  if (!table_ready) init_table();
  while (n >= 8) {
    uint32_t lo = load_le32(p) ^ crc;
    uint32_t hi = load_le32(p + 4);
    crc = table[7][lo & 0xFF] ^ table[6][(lo >> 8) & 0xFF]
          ^ table[5][(lo >> 16) & 0xFF] ^ table[4][lo >> 24]
          ^ table[3][hi & 0xFF] ^ table[2][(hi >> 8) & 0xFF]
          ^ table[1][(hi >> 16) & 0xFF] ^ table[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) crc = (crc >> 8) ^ table[0][(crc ^ *p++) & 0xFF];
  return crc;
}

/* ---------------------------------------------------------------- */
/* Carry-less folding (x86-64) */

#ifdef CRC32C_HAVE_X86
/* Folding. In the reflected convention byte 0 bit 0 of a slice is its
   highest-degree coefficient, and CRC(s, M) = (s * x^(8|M|) + M * x^32)
   mod P. Two facts make a fold exact:

   - XORing the state into the first 4 bytes gives CRC(s, M) =
     CRC(0, M'), so the state enters the first accumulator as data.
   - Moving a 128-bit lane X = A*x^64 + B (A its low quadword, B its
     high one) F bits forward means replacing it with X * x^F mod P.
     PCLMULQDQ on reflected operands returns x * a * b, so
     clmul(A, x^(F+63) mod P) ^ clmul(B, x^(F-1) mod P) is congruent to
     X * x^F and fits in 128 bits; XORing it into the lane F bits later
     leaves the whole slice congruent mod P.

   After the last fold, one 128-bit lane L is congruent to M' placed at
   the slice's end, so CRC(0, M') = CRC(0, L): two `crc32` instructions
   from state 0 reduce it. The bytes past the last whole lane continue
   that chain. Each constant is x^n mod P, bit-reflected into the high
   half of a 64-bit lane (the reflected 64-bit image of a polynomial of
   degree < 32), derived from the polynomial at kernel selection. */

/* Fold distances in bits: 16, 32, 48, 64, 128, 192 and 256 bytes. */
enum { K128, K256, K384, K512, K1024, K1536, K2048, NKEYS };
static const unsigned key_bits[NKEYS] = { 128, 256, 384, 512, 1024, 1536, 2048 };

/* keys[k] = { x^(F+63) mod P, x^(F-1) mod P }: the multiplier for a
   lane's low quadword, then for its high one. */
static uint64_t keys[NKEYS][2] __attribute__((aligned(16)));

/* x^n mod P in the high half of a 64-bit lane. Reflected 32-bit x^0 is
   bit 31; multiplying by x shifts right, reducing x^32 by the
   polynomial. */
static uint64_t xpow_lane(unsigned n)
{
  uint32_t v = 0x80000000u;
  while (n-- > 0) v = (v >> 1) ^ ((v & 1) ? CRC32C_POLY : 0);
  return (uint64_t)v << 32;
}

static void init_keys(void)
{
  for (int k = 0; k < NKEYS; k++) {
    keys[k][0] = xpow_lane(key_bits[k] + 63);
    keys[k][1] = xpow_lane(key_bits[k] - 1);
  }
}

static uint64_t load_u64(const unsigned char *p)
{
  uint64_t w;
  memcpy(&w, p, 8);
  return w;
}

#define X86_BASE "sse4.2,pclmul"
#define X86_WIDE "sse4.2,pclmul,avx512f,avx512bw,avx512vl,vpclmulqdq"

/* The `crc32` instruction chain: 8 bytes, then 1 byte at a time. With
   [copy], every byte read is also stored at [d]. */
__attribute__((target(X86_BASE), always_inline)) static inline uint32_t
chain(uint32_t crc, const unsigned char *p, unsigned char *d, size_t n,
      const int copy)
{
  uint64_t c = crc;
  while (n >= 8) {
    uint64_t w = load_u64(p);
    if (copy) memcpy(d, &w, 8), d += 8;
    c = _mm_crc32_u64(c, w);
    p += 8;
    n -= 8;
  }
  uint32_t c32 = (uint32_t)c;
  while (n-- > 0) {
    if (copy) *d++ = *p;
    c32 = _mm_crc32_u8(c32, *p++);
  }
  return c32;
}

#define KEY128(k) _mm_load_si128((const __m128i *)keys[k])

/* The lane moved [k]'s distance forward: congruent to x * x^F, 128 bits. */
__attribute__((target(X86_BASE), always_inline)) static inline __m128i
shift128(__m128i x, __m128i k)
{
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

/* Ends a fold: 16-byte steps while whole lanes remain, the two-`crc32`
   reduction, then the chain over the last 0-15 bytes. */
__attribute__((target(X86_BASE), always_inline)) static inline uint32_t
finish128(__m128i x, const unsigned char *p, unsigned char *d, size_t n,
          const int copy)
{
  const __m128i k128 = KEY128(K128);
  while (n >= 16) {
    __m128i y = _mm_loadu_si128((const __m128i *)p);
    if (copy) _mm_storeu_si128((__m128i *)d, y), d += 16;
    x = _mm_xor_si128(shift128(x, k128), y);
    p += 16;
    n -= 16;
  }
  uint64_t c = _mm_crc32_u64(0, (uint64_t)_mm_cvtsi128_si64(x));
  c = _mm_crc32_u64(c, (uint64_t)_mm_extract_epi64(x, 1));
  return chain((uint32_t)c, p, d, n, copy);
}

/* Four 128-bit lanes over 64-byte blocks; [n] >= 64. */
__attribute__((target(X86_BASE), always_inline)) static inline uint32_t
fold128(uint32_t crc, const unsigned char *p, unsigned char *d, size_t n,
        const int copy)
{
#define LD(i) _mm_loadu_si128((const __m128i *)(p + 16 * (i)))
#define ST(i, v) _mm_storeu_si128((__m128i *)(d + 16 * (i)), v)
  __m128i x0 = LD(0), x1 = LD(1), x2 = LD(2), x3 = LD(3);
  if (copy) {
    ST(0, x0), ST(1, x1), ST(2, x2), ST(3, x3);
    d += 64;
  }
  x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128((int)crc));
  p += 64;
  n -= 64;
  const __m128i k512 = KEY128(K512);
  while (n >= 64) {
    __m128i y0 = LD(0), y1 = LD(1), y2 = LD(2), y3 = LD(3);
    if (copy) {
      ST(0, y0), ST(1, y1), ST(2, y2), ST(3, y3);
      d += 64;
    }
    x0 = _mm_xor_si128(shift128(x0, k512), y0);
    x1 = _mm_xor_si128(shift128(x1, k512), y1);
    x2 = _mm_xor_si128(shift128(x2, k512), y2);
    x3 = _mm_xor_si128(shift128(x3, k512), y3);
    p += 64;
    n -= 64;
  }
#undef LD
#undef ST
  /* Lanes 0-2 move 48, 32 and 16 bytes forward onto lane 3. */
  x3 = _mm_xor_si128(x3, shift128(x0, KEY128(K384)));
  x3 = _mm_xor_si128(x3, _mm_xor_si128(shift128(x1, KEY128(K256)),
                                       shift128(x2, KEY128(K128))));
  return finish128(x3, p, d, n, copy);
}

#define KEY512(k) _mm512_broadcast_i32x4(KEY128(k))

__attribute__((target(X86_WIDE), always_inline)) static inline __m512i
shift512(__m512i z, __m512i k)
{
  return _mm512_xor_si512(_mm512_clmulepi64_epi128(z, k, 0x00),
                          _mm512_clmulepi64_epi128(z, k, 0x11));
}

/* shift512(z, k) ^ y in one three-way XOR. */
__attribute__((target(X86_WIDE), always_inline)) static inline __m512i
fold512(__m512i z, __m512i k, __m512i y)
{
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(z, k, 0x00),
                                   _mm512_clmulepi64_epi128(z, k, 0x11), y,
                                   0x96);
}

/* Four 512-bit accumulators over 256-byte blocks; [n] >= 256. */
__attribute__((target(X86_WIDE), always_inline)) static inline uint32_t
fold512x4(uint32_t crc, const unsigned char *p, unsigned char *d, size_t n,
          const int copy)
{
#define LD(i) _mm512_loadu_si512((const void *)(p + 64 * (i)))
#define ST(i, v) _mm512_storeu_si512((void *)(d + 64 * (i)), v)
  __m512i z0 = LD(0), z1 = LD(1), z2 = LD(2), z3 = LD(3);
  if (copy) {
    ST(0, z0), ST(1, z1), ST(2, z2), ST(3, z3);
    d += 256;
  }
  z0 = _mm512_xor_si512(z0, _mm512_zextsi128_si512(_mm_cvtsi32_si128((int)crc)));
  p += 256;
  n -= 256;
  const __m512i k2048 = KEY512(K2048);
  while (n >= 256) {
    __m512i y0 = LD(0), y1 = LD(1), y2 = LD(2), y3 = LD(3);
    if (copy) {
      ST(0, y0), ST(1, y1), ST(2, y2), ST(3, y3);
      d += 256;
    }
    z0 = fold512(z0, k2048, y0);
    z1 = fold512(z1, k2048, y1);
    z2 = fold512(z2, k2048, y2);
    z3 = fold512(z3, k2048, y3);
    p += 256;
    n -= 256;
  }
  /* Accumulators 0-2 move 192, 128 and 64 bytes forward onto 3. */
  z3 = _mm512_ternarylogic_epi64(shift512(z0, KEY512(K1536)),
                                 shift512(z1, KEY512(K1024)),
                                 fold512(z2, KEY512(K512), z3), 0x96);
  const __m512i k512 = KEY512(K512);
  while (n >= 64) {
    __m512i y = LD(0);
    if (copy) ST(0, y), d += 64;
    z3 = fold512(z3, k512, y);
    p += 64;
    n -= 64;
  }
#undef LD
#undef ST
  /* Its 128-bit lanes 0-2 move 48, 32 and 16 bytes forward onto lane 3;
     lane 3's key is zero, so its product drops out. */
  const __m512i kl = _mm512_inserti32x4(
      _mm512_inserti32x4(
          _mm512_inserti32x4(_mm512_setzero_si512(), KEY128(K384), 0),
          KEY128(K256), 1),
      KEY128(K128), 2);
  __m512i t = shift512(z3, kl);
  __m128i x = _mm_xor_si128(_mm512_extracti32x4_epi32(z3, 3),
                            _mm512_castsi512_si128(t));
  x = _mm_xor_si128(x, _mm_xor_si128(_mm512_extracti32x4_epi32(t, 1),
                                     _mm512_extracti32x4_epi32(t, 2)));
  return finish128(x, p, d, n, copy);
}

/* The fold needs a whole block of accumulators; shorter slices run the
   `crc32` chain, which is as fast below one block. */
__attribute__((target(X86_BASE))) static uint32_t
crc_pclmul128(uint32_t crc, const unsigned char *p, size_t n)
{
  return n >= 64 ? fold128(crc, p, NULL, n, 0) : chain(crc, p, NULL, n, 0);
}

__attribute__((target(X86_BASE))) static uint32_t
copy_pclmul128(uint32_t crc, const unsigned char *p, unsigned char *d, size_t n)
{
  return n >= 64 ? fold128(crc, p, d, n, 1) : chain(crc, p, d, n, 1);
}

__attribute__((target(X86_WIDE))) static uint32_t
crc_vpclmul512(uint32_t crc, const unsigned char *p, size_t n)
{
  if (n >= 256) return fold512x4(crc, p, NULL, n, 0);
  return n >= 64 ? fold128(crc, p, NULL, n, 0) : chain(crc, p, NULL, n, 0);
}

__attribute__((target(X86_WIDE))) static uint32_t
copy_vpclmul512(uint32_t crc, const unsigned char *p, unsigned char *d, size_t n)
{
  if (n >= 256) return fold512x4(crc, p, d, n, 1);
  return n >= 64 ? fold128(crc, p, d, n, 1) : chain(crc, p, d, n, 1);
}

static int cpu_has_pclmul128(void)
{
  unsigned int eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return 0;
  return (ecx & bit_SSE4_2) && (ecx & bit_PCLMUL);
}

/* AVX-512 needs the OS to save the opmask and ZMM state (XCR0 bits 1,
   2 and 5-7), not just the CPU to have the instructions. */
__attribute__((target("xsave"))) static int cpu_has_vpclmul512(void)
{
  unsigned int eax, ebx, ecx, edx;
  if (!cpu_has_pclmul128()) return 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) || !(ecx & bit_OSXSAVE)) return 0;
  if ((_xgetbv(0) & 0xE6) != 0xE6) return 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return 0;
  return (ebx & bit_AVX512F) && (ebx & bit_AVX512BW) && (ebx & bit_AVX512VL)
         && (ecx & bit_VPCLMULQDQ);
}
#endif

/* ---------------------------------------------------------------- */
/* Dispatch */

/* Kernel ids, shared with crc32c.ml. */
enum { KERNEL_UNSET = -1, KERNEL_SLICE8 = 0, KERNEL_PCLMUL128 = 1,
       KERNEL_VPCLMUL512 = 2 };

static int kernel = KERNEL_UNSET;

static int select_kernel(void)
{
  if (kernel == KERNEL_UNSET) {
    /* The tables are ready before any caller can see the kernel. */
    if (!table_ready) init_table();
#ifdef CRC32C_HAVE_X86
    init_keys();
    if (cpu_has_vpclmul512())
      kernel = KERNEL_VPCLMUL512;
    else if (cpu_has_pclmul128())
      kernel = KERNEL_PCLMUL128;
    else
      kernel = KERNEL_SLICE8;
#else
    kernel = KERNEL_SLICE8;
#endif
  }
  return kernel;
}

/* Whether kernel [k] can run here: every kernel up to the selected one. */
static int supported(intnat k)
{
  return k >= KERNEL_SLICE8 && k <= select_kernel();
}

static uint32_t crc_with(intnat k, uint32_t crc, const unsigned char *p,
                         size_t n)
{
  switch (k) {
#ifdef CRC32C_HAVE_X86
  case KERNEL_VPCLMUL512: return crc_vpclmul512(crc, p, n);
  case KERNEL_PCLMUL128: return crc_pclmul128(crc, p, n);
#endif
  default: return crc_slice8(crc, p, n);
  }
}

/* Slice-by-8 reads the copy back while it is still in L1. A destination
   that is the source itself is only folded. */
static uint32_t copy_with(intnat k, uint32_t crc, const unsigned char *p,
                          unsigned char *d, size_t n)
{
  if (d == p) return crc_with(k, crc, p, n);
  switch (k) {
#ifdef CRC32C_HAVE_X86
  case KERNEL_VPCLMUL512: return copy_vpclmul512(crc, p, d, n);
  case KERNEL_PCLMUL128: return copy_pclmul128(crc, p, d, n);
#endif
  default:
    memcpy(d, p, n);
    return crc_slice8(crc, d, n);
  }
}

/* ---------------------------------------------------------------- */
/* OCaml entry points: native (untagged) and bytecode */

static const unsigned char *bytes_at(value s, intnat pos)
{
  return (const unsigned char *)String_val(s) + pos;
}

intnat caml_crc32c_update(intnat crc, value s, intnat pos, intnat len)
{
  return crc_with(select_kernel(), (uint32_t)crc, bytes_at(s, pos),
                  (size_t)len);
}

value caml_crc32c_update_byte(value crc, value s, value pos, value len)
{
  return Val_long(
      caml_crc32c_update(Long_val(crc), s, Long_val(pos), Long_val(len)));
}

intnat caml_crc32c_copy_update(intnat crc, value src, intnat spos, value dst,
                               intnat dpos, intnat len)
{
  return copy_with(select_kernel(), (uint32_t)crc, bytes_at(src, spos),
                   Bytes_val(dst) + dpos, (size_t)len);
}

value caml_crc32c_copy_update_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(caml_crc32c_copy_update(Long_val(argv[0]), argv[1],
                                          Long_val(argv[2]), argv[3],
                                          Long_val(argv[4]),
                                          Long_val(argv[5])));
}

/* Kernel [k] forced, for tests; the caller checks [supported] first. */
intnat caml_crc32c_update_with(intnat k, intnat crc, value s, intnat pos,
                               intnat len)
{
  return crc_with(k, (uint32_t)crc, bytes_at(s, pos), (size_t)len);
}

value caml_crc32c_update_with_byte(value k, value crc, value s, value pos,
                                   value len)
{
  return Val_long(caml_crc32c_update_with(Long_val(k), Long_val(crc), s,
                                          Long_val(pos), Long_val(len)));
}

intnat caml_crc32c_copy_update_with(intnat k, intnat crc, value src,
                                    intnat spos, value dst, intnat dpos,
                                    intnat len)
{
  return copy_with(k, (uint32_t)crc, bytes_at(src, spos),
                   Bytes_val(dst) + dpos, (size_t)len);
}

value caml_crc32c_copy_update_with_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(caml_crc32c_copy_update_with(
      Long_val(argv[0]), Long_val(argv[1]), argv[2], Long_val(argv[3]),
      argv[4], Long_val(argv[5]), Long_val(argv[6])));
}

intnat caml_crc32c_kernel(value unit)
{
  (void)unit;
  return select_kernel();
}

value caml_crc32c_kernel_byte(value unit)
{
  return Val_long(caml_crc32c_kernel(unit));
}

intnat caml_crc32c_supported(intnat k)
{
  return supported(k);
}

value caml_crc32c_supported_byte(value k)
{
  return Val_long(caml_crc32c_supported(Long_val(k)));
}
