/* Byte search and byte counting over an OCaml string, at memchr speed.

   The diagnostics harness and the line index of Diag.Sources look at a
   few bytes of a multi-megabyte source ([//] comments, newlines); libc's
   memchr and a word-at-a-time count do that several times faster than a
   per-byte OCaml loop. The callers check the bounds. */

#include <caml/mlvalues.h>
#include <stdint.h>
#include <string.h>

value irdl_memscan_index(value s, value c, value vfrom, value vstop)
{
  const char *base = String_val(s);
  intnat from = Long_val(vfrom), stop = Long_val(vstop);
  const char *hit;
  if (from >= stop) return Val_long(-1);
  hit = memchr(base + from, Int_val(c), (size_t) (stop - from));
  return Val_long(hit == NULL ? -1 : hit - base);
}

/* Eight bytes at a time: a lane of [x] is zero exactly where the word
   holds the byte, and [~t & ~lo7] sets that lane's top bit without a carry
   into its neighbour. The lanes of [acc] count hits; they are summed
   before any of them can pass 255. */
value irdl_memscan_count(value s, value c, value from, value stop)
{
  const unsigned char *p = (const unsigned char *) String_val(s) + Long_val(from);
  const unsigned char *end = (const unsigned char *) String_val(s) + Long_val(stop);
  const uint64_t ones = 0x0101010101010101ULL, lo7 = 0x7f7f7f7f7f7f7f7fULL;
  const unsigned char b = (unsigned char) Int_val(c);
  const uint64_t pat = ones * b;
  intnat n = 0;
  while (end - p >= 8) {
    uint64_t acc = 0;
    int k;
    for (k = 0; k < 255 && end - p >= 8; k++, p += 8) {
      uint64_t w, x, t;
      memcpy(&w, p, 8);
      x = w ^ pat;
      t = ((x & lo7) + lo7) | x;
      acc += (~t & ~lo7) >> 7;
    }
    acc = (acc & 0x00ff00ff00ff00ffULL) + ((acc >> 8) & 0x00ff00ff00ff00ffULL);
    n += (intnat) ((acc * 0x0001000100010001ULL) >> 48);
  }
  for (; p < end; p++) n += *p == b;
  return Val_long(n);
}
