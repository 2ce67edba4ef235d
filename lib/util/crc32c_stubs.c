/* CRC32C (Castagnoli) kernels behind Repro_util.Crc32c.

   Two kernels compute the same function: the raw (pre-inverted) CRC
   register is folded over a byte range with the reflected polynomial
   0x82F63B78, so every stored checksum is the same whichever runs.

   - sse4.2: the x86-64 `crc32` instruction, 8 bytes per instruction,
     one serial dependency chain.
   - slice8: a portable slice-by-8 table loop (eight 256-entry tables,
     one 8-byte step per iteration).

   The kernel is chosen once, at first use: sse4.2 when the build targets
   x86-64 and CPUID reports SSE4.2, slice8 otherwise.

   The OCaml side bounds-checks every slice before calling in; these
   stubs trust [pos] and [len]. They neither allocate nor raise, hence
   [@@noalloc] and untagged integer arguments in native code. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CRC32C_HAVE_SSE42 1
#include <cpuid.h>
#include <nmmintrin.h>
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
/* SSE4.2 */

#ifdef CRC32C_HAVE_SSE42
__attribute__((target("sse4.2")))
static uint32_t crc_sse42(uint32_t crc, const unsigned char *p, size_t n)
{
  uint64_t c = crc;
  while (n >= 8) {
    uint64_t w;
    memcpy(&w, p, 8);
    c = _mm_crc32_u64(c, w);
    p += 8;
    n -= 8;
  }
  uint32_t c32 = (uint32_t)c;
  while (n-- > 0) c32 = _mm_crc32_u8(c32, *p++);
  return c32;
}

static int cpu_has_sse42(void)
{
  unsigned int eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return 0;
  return (ecx & bit_SSE4_2) != 0;
}
#endif

/* ---------------------------------------------------------------- */
/* Dispatch */

enum { KERNEL_UNSET = -1, KERNEL_SLICE8 = 0, KERNEL_SSE42 = 1 };

static int kernel = KERNEL_UNSET;

static int select_kernel(void)
{
  if (kernel == KERNEL_UNSET) {
#ifdef CRC32C_HAVE_SSE42
    kernel = cpu_has_sse42() ? KERNEL_SSE42 : KERNEL_SLICE8;
#else
    kernel = KERNEL_SLICE8;
#endif
  }
  return kernel;
}

static uint32_t crc_update(uint32_t crc, const unsigned char *p, size_t n)
{
#ifdef CRC32C_HAVE_SSE42
  if (select_kernel() == KERNEL_SSE42) return crc_sse42(crc, p, n);
#endif
  return crc_slice8(crc, p, n);
}

/* ---------------------------------------------------------------- */
/* OCaml entry points: native (untagged) and bytecode */

static const unsigned char *bytes_at(value s, intnat pos)
{
  return (const unsigned char *)String_val(s) + pos;
}

intnat caml_crc32c_update(intnat crc, value s, intnat pos, intnat len)
{
  return crc_update((uint32_t)crc, bytes_at(s, pos), (size_t)len);
}

value caml_crc32c_update_byte(value crc, value s, value pos, value len)
{
  return Val_long(
      caml_crc32c_update(Long_val(crc), s, Long_val(pos), Long_val(len)));
}

intnat caml_crc32c_update_slice8(intnat crc, value s, intnat pos, intnat len)
{
  return crc_slice8((uint32_t)crc, bytes_at(s, pos), (size_t)len);
}

value caml_crc32c_update_slice8_byte(value crc, value s, value pos, value len)
{
  return Val_long(caml_crc32c_update_slice8(Long_val(crc), s, Long_val(pos),
                                            Long_val(len)));
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
