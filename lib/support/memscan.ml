(* The bounds are checked here; the stubs trust them. *)

external index_unsafe : string -> char -> int -> int -> int
  = "irdl_memscan_index"
[@@noalloc]

external count_unsafe : string -> char -> int -> int -> int
  = "irdl_memscan_count"
[@@noalloc]

let check name s from stop =
  if from < 0 || stop > String.length s || from > stop then
    invalid_arg ("Memscan." ^ name)

let index s c ~from ~stop =
  check "index" s from stop;
  index_unsafe s c from stop

let count s c ~from ~stop =
  check "count" s from stop;
  count_unsafe s c from stop

(* Sized by a count, then filled with one memchr per line: as fast as
   growing an array in one pass, and exact. *)
let line_starts s =
  let len = String.length s in
  let starts = Array.make (1 + count_unsafe s '\n' 0 len) 0 in
  let rec fill k from =
    match index_unsafe s '\n' from len with
    | -1 -> ()
    | i ->
        starts.(k) <- i + 1;
        fill (k + 1) (i + 1)
  in
  fill 1 0;
  starts
