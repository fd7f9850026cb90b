(* A domain takes ids in blocks of 1024 aligned to these pages
   ({!Graph.next_id}), so the ids of IR built in one go are dense and one
   block fills one page: the ints live in pages of 1024 slots keyed by
   [id / 1024], and the page last used is cached. A lookup costs two
   reads rather than a hash lookup. A page is [Bytes] holding the int + 1
   as an int32 per slot (0: none yet): 4 KB, past the minor heap's
   largest block, so it is allocated straight into the major heap, where
   the GC neither copies nor scans it. A small print or emit (a server
   request) touches a page or two. *)

module Int_tbl = Hashtbl.Make (Int)

let page_bits = 10
let page_slots = 1 lsl page_bits

type t = {
  pages : Bytes.t Int_tbl.t;
  mutable last_key : int;
  mutable last : Bytes.t;
}

let create () = { pages = Int_tbl.create 16; last_key = -1; last = Bytes.empty }

let other_page t key =
  let p =
    match Int_tbl.find t.pages key with
    | p -> p
    | exception Not_found ->
        let p = Bytes.make (4 * page_slots) '\000' in
        Int_tbl.add t.pages key p;
        p
  in
  t.last_key <- key;
  t.last <- p;
  p

let find_or_set t id n =
  let key = id lsr page_bits in
  let page = if key = t.last_key then t.last else other_page t key in
  let at = 4 * (id land (page_slots - 1)) in
  let m = Int32.to_int (Bytes.get_int32_le page at) - 1 in
  if m < 0 then Bytes.set_int32_le page at (Int32.of_int (n + 1));
  m
