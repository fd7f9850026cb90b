(* Versioned binary serialization for IR modules. A dialect pack is
   modules too: one document per dialect, lowered to [irdl.*] ops
   ({!Irdl_core.Dialect_ir}).

   A bytecode buffer is a sequence of self-delimiting documents:

     document := magic version:uvarint kind:u8 payload_len:uvarint payload

   [magic] is 8 bytes ("\xC9IRDLBC\x00": the lead byte is an invalid UTF-8
   start so no textual IR can collide) and [kind] is 0, the one document
   kind; any other value is rejected. Because every document carries its
   payload length, documents concatenate freely — the binary analog of
   `// -----` chunks — and a reader can skip a document it cannot decode.

   A module payload (version 2) is

     strtab pool sigtab total_values:uvarint op_index op*
     sigtab := n:uvarint row*
     row    := name:str n:uvarint ty* n:uvarint ty* n:uvarint (key:str attr)*
               successors:uvarint regions:uvarint
     op     := row:uvarint file:str line:zigzag col:uvarint
               operand:ref* result:ref* successor:uvarint* region*
     region := len:uvarint n_blocks:uvarint args* ops*
     args   := n:uvarint (ty ref)*
     ops    := n:uvarint op*

   where [strtab] and [pool] are deduplicated tables (strings; types and
   attributes in one table, children referencing earlier entries only) that
   intern directly on load through the {!Attr} smart constructors, and
   [op_index] lists the byte length of every top-level op, which bounds
   each op's decode. [sigtab] holds one row per distinct op signature:
   name, operand and result types, attributes, and successor and region
   counts. An op names its row and spells only what the row does not
   hold: its location (the line as the change from the previous op's),
   its values, its successor blocks and its regions.

   Values are numbered by the writer at first encounter (use or
   definition), which keeps the writer single-pass and incremental: ops
   can be pushed one at a time (streaming emit) and a forward-referencing
   use simply takes the next index early. A [ref] counts back from the
   next fresh index: 0 takes that index, k > 0 names the index k below
   it. The reader mirrors the textual parser: a use of a not-yet-defined
   index creates a [Forward_ref] placeholder patched in place at
   definition, preserving use identity.

   Version 1 module payloads, still read, have no [sigtab]: each op spells
   its name, absolute location, counts, types and attributes, and a value
   reference is the absolute index.

   The reader is fail-soft by construction: every read is bounds-checked
   against the enclosing document, counts are sanity-checked against the
   bytes that remain, and all errors surface as located diagnostics
   ([Diag.Error_exn] / an engine emit), never as a crash. *)

open Irdl_support
module Graph = Irdl_ir.Graph
module Attr = Irdl_ir.Attr
module Context = Irdl_ir.Context
module Id_slots = Irdl_ir.Id_slots

let magic = "\xc9IRDLBC\x00"
let magic_len = String.length magic
let version = 2

let sniff s =
  String.length s >= magic_len && String.sub s 0 magic_len = magic

(* ------------------------------------------------------------------ *)
(* Varint codecs                                                      *)
(* ------------------------------------------------------------------ *)

let rec add_uv_go buf n =
  if n < 0x80 then Buffer.add_char buf (Char.chr n)
  else begin
    Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
    add_uv_go buf (n lsr 7)
  end

let add_uv buf n =
  if n < 0 then invalid_arg "Bytecode.add_uv: negative";
  add_uv_go buf n

let zigzag (i : int64) =
  Int64.logxor (Int64.shift_left i 1) (Int64.shift_right i 63)

let unzigzag (u : int64) =
  Int64.logxor (Int64.shift_right_logical u 1) (Int64.neg (Int64.logand u 1L))

let add_v64 buf (i : int64) =
  let rec go u =
    if Int64.unsigned_compare u 0x80L < 0 then
      Buffer.add_char buf (Char.chr (Int64.to_int u))
    else begin
      Buffer.add_char buf
        (Char.chr (0x80 lor (Int64.to_int (Int64.logand u 0x7fL))));
      go (Int64.shift_right_logical u 7)
    end
  in
  go (zigzag i)

(* ------------------------------------------------------------------ *)
(* Writer                                                             *)
(* ------------------------------------------------------------------ *)

module Id_tbl = Hashtbl.Make (Int)

(* A signature entry remembers the row one writer gave it in [sg_row]: the
   writer's key above [row_bits], the row below. Keys are process-unique,
   so a mark left by another writer, or by an earlier one, never matches. *)
let row_bits = 24
let row_mask = (1 lsl row_bits) - 1
let writer_keys = Atomic.make 0

module Row_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash (a : t) = Hashtbl.hash_param 64 256 a
end)

type writer = {
  w_key : int;
  w_strings : (string, int) Hashtbl.t;
  w_strtab : Buffer.t;
  mutable w_n_strings : int;
  (* One pool for types and attributes; the per-kind ref tables are keyed
     on the interner's dense ids, so dedup is O(1) per node. *)
  w_pool : Buffer.t;
  w_ty_refs : int Id_tbl.t;
  w_attr_refs : int Id_tbl.t;
  mutable w_n_pool : int;
  (* Signature rows by content: the ints a row spells, as table
     references. *)
  w_sigtab : Buffer.t;
  w_rows : int Row_tbl.t;
  mutable w_keys : int array array;  (** spellings, by length *)
  (* Values get indices at first encounter (use or definition); the writer
     tracks how many allocated indices still await their defining op. *)
  w_vals : Id_slots.t;  (** value id -> index *)
  mutable w_n_vals : int;
  mutable w_undefined : int;
  (* The last op's file (and its string reference) and line. *)
  mutable w_file : string;
  mutable w_file_ref : int;
  mutable w_line : int;
  mutable w_scratch : Buffer.t array;  (** region bodies, by nesting depth *)
  w_index : Buffer.t;
  w_ops : Buffer.t;
  mutable w_n_ops : int;
}

let create_writer () =
  {
    w_key = Atomic.fetch_and_add writer_keys 1 + 1;
    w_strings = Hashtbl.create 64;
    w_strtab = Buffer.create 256;
    w_n_strings = 0;
    w_pool = Buffer.create 256;
    w_ty_refs = Id_tbl.create 64;
    w_attr_refs = Id_tbl.create 64;
    w_n_pool = 0;
    w_sigtab = Buffer.create 256;
    w_rows = Row_tbl.create 64;
    w_keys = [||];
    w_vals = Id_slots.create ();
    w_n_vals = 0;
    w_undefined = 0;
    w_file = "";
    w_file_ref = -1;
    w_line = 0;
    w_scratch = [||];
    w_index = Buffer.create 64;
    w_ops = Buffer.create 1024;
    w_n_ops = 0;
  }

let str_ref w s =
  match Hashtbl.find w.w_strings s with
  | i -> i
  | exception Not_found ->
      let i = w.w_n_strings in
      w.w_n_strings <- i + 1;
      Hashtbl.add w.w_strings s i;
      add_uv w.w_strtab (String.length s);
      Buffer.add_string w.w_strtab s;
      i

let signedness_code = function
  | Attr.Signless -> 0
  | Attr.Signed -> 1
  | Attr.Unsigned -> 2

let float_kind_code = function
  | Attr.BF16 -> 0
  | Attr.F16 -> 1
  | Attr.F32 -> 2
  | Attr.F64 -> 3

(* Pool entry tags. Types are 0x01.., attributes 0x20..; children always
   reference strictly earlier entries, so emission is post-order. *)
let rec ty_ref w ty =
  match Id_tbl.find w.w_ty_refs (Attr.id_ty ty) with
  | i -> i
  | exception Not_found ->
      let ty = Attr.intern_ty ty in
      let b = Buffer.create 16 in
      (match ty with
      | Attr.Integer { width; signedness } ->
          Buffer.add_char b '\x01';
          add_uv b width;
          Buffer.add_char b (Char.chr (signedness_code signedness))
      | Attr.Float k ->
          Buffer.add_char b '\x02';
          Buffer.add_char b (Char.chr (float_kind_code k))
      | Attr.Index -> Buffer.add_char b '\x03'
      | Attr.None_ty -> Buffer.add_char b '\x04'
      | Attr.Function { inputs; outputs } ->
          let ins = List.map (ty_ref w) inputs in
          let outs = List.map (ty_ref w) outputs in
          Buffer.add_char b '\x05';
          add_uv b (List.length ins);
          List.iter (add_uv b) ins;
          add_uv b (List.length outs);
          List.iter (add_uv b) outs
      | Attr.Tuple tys ->
          let refs = List.map (ty_ref w) tys in
          Buffer.add_char b '\x06';
          add_uv b (List.length refs);
          List.iter (add_uv b) refs
      | Attr.Dynamic { dialect; name; params } ->
          let refs = List.map (attr_ref w) params in
          Buffer.add_char b '\x07';
          add_uv b (str_ref w dialect);
          add_uv b (str_ref w name);
          add_uv b (List.length refs);
          List.iter (add_uv b) refs);
      let i = w.w_n_pool in
      w.w_n_pool <- i + 1;
      Id_tbl.add w.w_ty_refs (Attr.id_ty ty) i;
      Buffer.add_buffer w.w_pool b;
      i

and attr_ref w a =
  match Id_tbl.find w.w_attr_refs (Attr.id a) with
  | i -> i
  | exception Not_found ->
      let a = Attr.intern a in
      let b = Buffer.create 16 in
      (match a with
      | Attr.Unit -> Buffer.add_char b '\x20'
      | Attr.Bool v ->
          Buffer.add_char b '\x21';
          Buffer.add_char b (if v then '\x01' else '\x00')
      | Attr.Int { value; ty } ->
          let t = ty_ref w ty in
          Buffer.add_char b '\x22';
          add_v64 b value;
          add_uv b t
      | Attr.Float_attr { value; ty } ->
          let t = ty_ref w ty in
          Buffer.add_char b '\x23';
          add_v64 b (Int64.bits_of_float value);
          add_uv b t
      | Attr.String s ->
          Buffer.add_char b '\x24';
          add_uv b (str_ref w s)
      | Attr.Array elts ->
          let refs = List.map (attr_ref w) elts in
          Buffer.add_char b '\x25';
          add_uv b (List.length refs);
          List.iter (add_uv b) refs
      | Attr.Dict entries ->
          let refs =
            List.map (fun (k, v) -> (str_ref w k, attr_ref w v)) entries
          in
          Buffer.add_char b '\x26';
          add_uv b (List.length refs);
          List.iter
            (fun (k, v) ->
              add_uv b k;
              add_uv b v)
            refs
      | Attr.Type ty ->
          let t = ty_ref w ty in
          Buffer.add_char b '\x27';
          add_uv b t
      | Attr.Enum { dialect; enum; case } ->
          Buffer.add_char b '\x28';
          add_uv b (str_ref w dialect);
          add_uv b (str_ref w enum);
          add_uv b (str_ref w case)
      | Attr.Symbol s ->
          Buffer.add_char b '\x29';
          add_uv b (str_ref w s)
      | Attr.Location { file; line; col } ->
          Buffer.add_char b '\x2a';
          add_uv b (str_ref w file);
          add_uv b line;
          add_uv b col
      | Attr.Type_id s ->
          Buffer.add_char b '\x2b';
          add_uv b (str_ref w s)
      | Attr.Opaque { tag; repr } ->
          Buffer.add_char b '\x2c';
          add_uv b (str_ref w tag);
          add_uv b (str_ref w repr)
      | Attr.Dyn_attr { dialect; name; params } ->
          let refs = List.map (attr_ref w) params in
          Buffer.add_char b '\x2d';
          add_uv b (str_ref w dialect);
          add_uv b (str_ref w name);
          add_uv b (List.length refs);
          List.iter (add_uv b) refs);
      let i = w.w_n_pool in
      w.w_n_pool <- i + 1;
      Id_tbl.add w.w_attr_refs (Attr.id a) i;
      Buffer.add_buffer w.w_pool b;
      i

(* ---------------- signature rows ---------------- *)

(* The spelling of [n] ints that the row table is probed with: one array
   per length, reused. *)
let key_of_length w n =
  if n >= Array.length w.w_keys then
    w.w_keys <-
      Array.init (2 * n) (fun i ->
          if i < Array.length w.w_keys then w.w_keys.(i) else [||]);
  if Array.length w.w_keys.(n) <> n then w.w_keys.(n) <- Array.make n 0;
  w.w_keys.(n)

let rec spell_attrs w k i = function
  | [] -> ()
  | (name, a) :: rest ->
      k.(i) <- str_ref w name;
      k.(i + 1) <- attr_ref w a;
      spell_attrs w k (i + 2) rest

(* A row's ints: name, operand count and types, result count and types,
   attribute count and (key, attribute) pairs, successor and region
   counts, as table references. *)
let spell_sig w (op : Graph.op) =
  let n_operands = Array.length op.op_operands
  and n_results = Array.length op.op_results
  and n_attrs = List.length op.attrs in
  let k = key_of_length w (6 + n_operands + n_results + (2 * n_attrs)) in
  k.(0) <- str_ref w op.op_name;
  k.(1) <- n_operands;
  for i = 0 to n_operands - 1 do
    k.(2 + i) <- ty_ref w op.op_operands.(i).u_value.v_ty
  done;
  let i = 2 + n_operands in
  k.(i) <- n_results;
  for j = 0 to n_results - 1 do
    k.(i + 1 + j) <- ty_ref w op.op_results.(j).v_ty
  done;
  let i = i + 1 + n_results in
  k.(i) <- n_attrs;
  spell_attrs w k (i + 1) op.attrs;
  let i = i + 1 + (2 * n_attrs) in
  k.(i) <- List.length op.successors;
  k.(i + 1) <- List.length op.regions;
  k

(* The row of [op]'s signature. Rows are found by content, so the bytes
   depend only on the IR; the op's entry, once it holds this writer's
   mark, skips the spelling: an op with the entry's signature has the
   row's content. Finding a row allocates nothing. *)
let row_of w (op : Graph.op) =
  let e = op.op_sig in
  let mark = e.sg_row in
  if mark lsr row_bits = w.w_key && Graph.Op.has_sig op e then
    mark land row_mask
  else begin
    let k = spell_sig w op in
    let r =
      match Row_tbl.find w.w_rows k with
      | r -> r
      | exception Not_found ->
          let r = Row_tbl.length w.w_rows in
          Row_tbl.add w.w_rows (Array.copy k) r;
          Array.iter (add_uv w.w_sigtab) k;
          r
    in
    if r <= row_mask && Graph.Op.has_sig op e then
      e.sg_row <- (w.w_key lsl row_bits) lor r;
    r
  end

(* ---------------- ops ---------------- *)

let zigzag_int n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag_int u = (u lsr 1) lxor (-(u land 1))

(* A module op's location: its file, its line as the change from the
   previous op's, and its column; an unknown location is [""], line 0. *)
let add_op_loc w buf (loc : Loc.t) =
  let unknown = Loc.is_unknown loc in
  let file = if unknown then "" else loc.start_pos.file in
  if not (w.w_file_ref >= 0 && file == w.w_file) then begin
    w.w_file <- file;
    w.w_file_ref <- str_ref w file
  end;
  add_uv buf w.w_file_ref;
  let line = if unknown then 0 else loc.start_pos.line in
  add_uv buf (zigzag_int (line - w.w_line));
  w.w_line <- line;
  add_uv buf (if unknown then 0 else loc.start_pos.col)

(* A value reference counts back from the next fresh index: 0 is that
   index (taken now), k > 0 the index k below it. *)
let value_use w (v : Graph.value) =
  let i = Id_slots.find_or_set w.w_vals v.v_id w.w_n_vals in
  if i >= 0 then w.w_n_vals - i
  else begin
    w.w_n_vals <- w.w_n_vals + 1;
    w.w_undefined <- w.w_undefined + 1;
    0
  end

let value_def w (v : Graph.value) =
  let i = Id_slots.find_or_set w.w_vals v.v_id w.w_n_vals in
  if i >= 0 then begin
    (* Taken by an earlier use: this is the awaited definition. *)
    w.w_undefined <- w.w_undefined - 1;
    w.w_n_vals - i
  end
  else begin
    w.w_n_vals <- w.w_n_vals + 1;
    0
  end

(* The region body buffer for nesting [depth], emptied. *)
let scratch w depth =
  let n = Array.length w.w_scratch in
  if depth >= n then
    w.w_scratch <-
      Array.append w.w_scratch
        (Array.init (depth + 1 - n) (fun _ -> Buffer.create 64));
  let b = w.w_scratch.(depth) in
  Buffer.clear b;
  b

let rec add_successors buf blocks (op : Graph.op) = function
  | [] -> ()
  | (b : Graph.block) :: rest ->
      (match Hashtbl.find_opt blocks b.blk_id with
      | Some i -> add_uv buf i
      | None ->
          Diag.raise_error ~loc:op.op_loc
            "bytecode: successor of %S is not a block of the enclosing \
             region"
            op.op_name);
      add_successors buf blocks op rest

let rec encode_op w buf ~depth ~blocks (op : Graph.op) =
  add_uv buf (row_of w op);
  add_op_loc w buf op.op_loc;
  for i = 0 to Array.length op.op_operands - 1 do
    add_uv buf (value_use w op.op_operands.(i).u_value)
  done;
  for i = 0 to Array.length op.op_results - 1 do
    add_uv buf (value_def w op.op_results.(i))
  done;
  add_successors buf blocks op op.successors;
  match op.regions with
  | [] -> ()
  | regions -> List.iter (encode_region w buf ~depth) regions

and encode_region w buf ~depth (r : Graph.region) =
  let rbuf = scratch w depth in
  let blks = Graph.Region.blocks r in
  let scope = Hashtbl.create 8 in
  List.iteri (fun i (b : Graph.block) -> Hashtbl.add scope b.blk_id i) blks;
  add_uv rbuf (List.length blks);
  (* Signature pass: argument types and value references for every block,
     so branch targets and cross-block uses resolve before any body
     decodes. *)
  List.iter
    (fun (b : Graph.block) ->
      add_uv rbuf (Array.length b.blk_args);
      Array.iter
        (fun (a : Graph.value) ->
          add_uv rbuf (ty_ref w a.v_ty);
          add_uv rbuf (value_def w a))
        b.blk_args)
    blks;
  List.iter
    (fun (b : Graph.block) ->
      add_uv rbuf (Graph.Block.num_ops b);
      Graph.Block.iter_ops b ~f:(fun op ->
          encode_op w rbuf ~depth:(depth + 1) ~blocks:scope op))
    blks;
  add_uv buf (Buffer.length rbuf);
  Buffer.add_buffer buf rbuf

module Write = struct
  type t = writer

  let create () = create_writer ()
  let no_blocks : (int, int) Hashtbl.t = Hashtbl.create 1

  (* Written in place: the index records the op's length afterwards. *)
  let push_op w op =
    let start = Buffer.length w.w_ops in
    encode_op w w.w_ops ~depth:0 ~blocks:no_blocks op;
    add_uv w.w_index (Buffer.length w.w_ops - start);
    w.w_n_ops <- w.w_n_ops + 1

  let assemble payload =
    let doc = Buffer.create (Buffer.length payload + 16) in
    Buffer.add_string doc magic;
    add_uv doc version;
    Buffer.add_char doc '\x00';
    add_uv doc (Buffer.length payload);
    Buffer.add_buffer doc payload;
    Buffer.contents doc

  let close w =
    if w.w_undefined > 0 then
      Diag.errorf
        "bytecode: %d value%s used by the emitted ops %s never defined"
        w.w_undefined
        (if w.w_undefined = 1 then "" else "s")
        (if w.w_undefined = 1 then "is" else "are")
    else begin
      let payload =
        Buffer.create (Buffer.length w.w_ops + Buffer.length w.w_sigtab + 256)
      in
      add_uv payload w.w_n_strings;
      Buffer.add_buffer payload w.w_strtab;
      add_uv payload w.w_n_pool;
      Buffer.add_buffer payload w.w_pool;
      add_uv payload (Row_tbl.length w.w_rows);
      Buffer.add_buffer payload w.w_sigtab;
      add_uv payload w.w_n_vals;
      add_uv payload w.w_n_ops;
      Buffer.add_buffer payload w.w_index;
      Buffer.add_buffer payload w.w_ops;
      Ok (assemble payload)
    end

  let module_to_string ops =
    let w = create () in
    match Diag.protect (fun () -> List.iter (push_op w) ops) with
    | Error d -> Error d
    | Ok () -> close w

  (* A dialect pack: the dialects as [irdl.*] ops, one module document
     each, so a reader holds one dialect's tables at a time. *)
  let dialects_to_string dls =
    let doc dl = module_to_string [ Irdl_core.Dialect_ir.lower dl ] in
    let docs = List.map doc dls in
    match List.find_opt Result.is_error docs with
    | Some e -> e
    | None -> Ok (String.concat "" (List.map Result.get_ok docs))
end

(* ------------------------------------------------------------------ *)
(* Reader                                                             *)
(* ------------------------------------------------------------------ *)

type cursor = {
  c_file : string;
  c_buf : string;
  mutable c_pos : int;
  mutable c_end : int;
}

let cursor ?(file = "<bytecode>") s =
  { c_file = file; c_buf = s; c_pos = 0; c_end = String.length s }

let cfail c fmt =
  Diag.raise_error
    ~loc:(Loc.point (Loc.start_of_file c.c_file))
    ("malformed bytecode: " ^^ fmt ^^ " at byte %d")

let remaining c = c.c_end - c.c_pos

let read_u8 c =
  if c.c_pos >= c.c_end then cfail c "truncated input" c.c_pos;
  (* In bounds by the check above (c_end <= String.length c_buf). *)
  let b = Char.code (String.unsafe_get c.c_buf c.c_pos) in
  c.c_pos <- c.c_pos + 1;
  b

(* The varint readers are the innermost decode primitives (~10 calls per
   op); their loops live at top level — a [let rec] nested inside the
   reader would allocate a closure on every call. The one-byte case is
   read inline, before any call: nearly every count, index and string
   reference fits in seven bits. *)
let rec read_uv_go c shift acc =
  if shift > 56 then cfail c "oversized varint" c.c_pos;
  let b = read_u8 c in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else read_uv_go c (shift + 7) acc

let read_uv_long c =
  let v = read_uv_go c 0 0 in
  if v < 0 then cfail c "oversized varint" c.c_pos else v

let read_uv c =
  let pos = c.c_pos in
  if pos >= c.c_end then read_uv_long c
  else
    (* In bounds by the check above (c_end <= String.length c_buf). *)
    let b = Char.code (String.unsafe_get c.c_buf pos) in
    if b land 0x80 = 0 then begin
      c.c_pos <- pos + 1;
      b
    end
    else read_uv_long c

let rec read_v64_go c shift acc =
  if shift > 63 then cfail c "oversized varint" c.c_pos;
  let b = read_u8 c in
  let acc =
    Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7f)) shift)
  in
  if b land 0x80 = 0 then acc else read_v64_go c (shift + 7) acc

let read_v64 c = unzigzag (read_v64_go c 0 0L)

let read_bytes c n =
  if n < 0 || n > remaining c then cfail c "truncated input" c.c_pos;
  let s = String.sub c.c_buf c.c_pos n in
  c.c_pos <- c.c_pos + n;
  s

(* A count of things each at least one byte wide: reject implausible values
   up front so corrupted counts cannot drive huge allocations. *)
let read_count c what =
  let n = read_uv c in
  if n > remaining c then cfail c "implausible %s count %d" what n c.c_pos;
  n

type doc_header = { dh_version : int; dh_payload_end : int }

let read_header c =
  if remaining c < magic_len || String.sub c.c_buf c.c_pos magic_len <> magic
  then cfail c "bad magic (not an IRDL bytecode document)" c.c_pos;
  c.c_pos <- c.c_pos + magic_len;
  let v = read_uv c in
  if v < 1 || v > version then
    Diag.raise_error
      ~loc:(Loc.point (Loc.start_of_file c.c_file))
      "unsupported bytecode version %d (this reader supports versions 1..%d)"
      v version;
  let kind = read_u8 c in
  if kind <> 0 then cfail c "unknown document kind %d" kind c.c_pos;
  let plen = read_uv c in
  if plen > remaining c then
    cfail c "truncated document (payload of %d bytes, %d remain)" plen
      (remaining c) c.c_pos;
  { dh_version = v; dh_payload_end = c.c_pos + plen }

(* The (offset, length) of each document; an undecodable tail is one last
   opaque slice, so a consumer still visits (and reports) it. *)
let split_documents ?file s =
  let c = cursor ?file s in
  let rec go acc =
    if remaining c = 0 then List.rev acc
    else
      let off = c.c_pos in
      match Diag.protect (fun () -> read_header c) with
      | Error _ -> List.rev ((off, remaining c) :: acc)
      | Ok h ->
          c.c_pos <- h.dh_payload_end;
          go ((off, h.dh_payload_end - off) :: acc)
  in
  match go [] with
  | [] | [ _ ] -> [ s ]
  | docs -> List.map (fun (off, len) -> String.sub s off len) docs

(* [Array.init]'s application order is unspecified; cursor reads need
   strict left-to-right sequencing. *)
let read_array n f =
  if n = 0 then [||]
  else begin
    let a = Array.make n (f 0) in
    for i = 1 to n - 1 do
      a.(i) <- f i
    done;
    a
  end

let read_strtab c =
  let n = read_count c "string table" in
  read_array n (fun _ ->
      let len = read_uv c in
      read_bytes c len)

let str_at c strs i =
  if i < 0 || i >= Array.length strs then
    cfail c "string reference %d out of range" i c.c_pos;
  strs.(i)

let rec read_pairs c strs attr_at n =
  if n = 0 then []
  else
    let key = str_at c strs (read_uv c) in
    let a = attr_at (read_uv c) in
    (key, a) :: read_pairs c strs attr_at (n - 1)

type pool_entry = P_ty of Attr.ty | P_attr of Attr.t

(* Without [intern], attributes are built as they are, not interned: a
   transient read, whose ops are only read back. *)
let read_pool ~intern c strs =
  let n = read_count c "pool" in
  let pool = Array.make n (P_attr Attr.Unit) in
  (* Children may only reference strictly earlier (already decoded)
     entries; [filled] enforces it while the table is being read. *)
  let filled = ref 0 in
  let ty_at i =
    if i < 0 || i >= !filled then
      cfail c "pool reference %d out of range" i c.c_pos;
    match pool.(i) with
    | P_ty ty -> ty
    | P_attr _ -> cfail c "pool entry %d is not a type" i c.c_pos
  in
  let attr_at i =
    if i < 0 || i >= !filled then
      cfail c "pool reference %d out of range" i c.c_pos;
    match pool.(i) with
    | P_attr a -> a
    | P_ty _ -> cfail c "pool entry %d is not an attribute" i c.c_pos
  in
  let attr a = P_attr (if intern then Attr.intern a else a) in
  let read_str () = str_at c strs (read_uv c) in
  (* Lists of references, read in order with no intermediate list. *)
  let rec refs at k =
    if k = 0 then []
    else
      let x = at (read_uv c) in
      x :: refs at (k - 1)
  in
  let read_tys () = refs ty_at (read_count c "type list") in
  let read_attrs () = refs attr_at (read_count c "attribute list") in
  let signedness_of = function
    | 0 -> Attr.Signless
    | 1 -> Attr.Signed
    | 2 -> Attr.Unsigned
    | s -> cfail c "bad signedness code %d" s c.c_pos
  in
  let float_kind_of = function
    | 0 -> Attr.BF16
    | 1 -> Attr.F16
    | 2 -> Attr.F32
    | 3 -> Attr.F64
    | k -> cfail c "bad float kind code %d" k c.c_pos
  in
  for i = 0 to n - 1 do
    let entry =
      match read_u8 c with
      | 0x01 ->
          let width = read_uv c in
          if width < 1 || width > 1 lsl 24 then
            cfail c "implausible integer width %d" width c.c_pos;
          let s = signedness_of (read_u8 c) in
          P_ty (Attr.integer ~signedness:s width)
      | 0x02 -> P_ty (Attr.intern_ty (Attr.Float (float_kind_of (read_u8 c))))
      | 0x03 -> P_ty Attr.index
      | 0x04 -> P_ty Attr.none
      | 0x05 ->
          let inputs = read_tys () in
          let outputs = read_tys () in
          P_ty (Attr.function_ty ~inputs ~outputs)
      | 0x06 -> P_ty (Attr.tuple (read_tys ()))
      | 0x07 ->
          let dialect = read_str () in
          let name = read_str () in
          P_ty (Attr.dynamic ~dialect ~name (read_attrs ()))
      | 0x20 -> attr Attr.Unit
      | 0x21 -> attr (Attr.Bool (read_u8 c <> 0))
      | 0x22 ->
          let value = read_v64 c in
          attr (Attr.Int { value; ty = ty_at (read_uv c) })
      | 0x23 ->
          let value = Int64.float_of_bits (read_v64 c) in
          attr (Attr.Float_attr { value; ty = ty_at (read_uv c) })
      | 0x24 -> attr (Attr.String (read_str ()))
      | 0x25 -> attr (Attr.Array (read_attrs ()))
      | 0x26 ->
          let entries = read_pairs c strs attr_at (read_count c "dictionary") in
          attr (Attr.Dict entries)
      | 0x27 -> attr (Attr.Type (ty_at (read_uv c)))
      | 0x28 ->
          let dialect = read_str () in
          let enum = read_str () in
          attr (Attr.Enum { dialect; enum; case = read_str () })
      | 0x29 -> attr (Attr.Symbol (read_str ()))
      | 0x2a ->
          let file = read_str () in
          let line = read_uv c in
          attr (Attr.Location { file; line; col = read_uv c })
      | 0x2b -> attr (Attr.Type_id (read_str ()))
      | 0x2c ->
          let tag = read_str () in
          attr (Attr.Opaque { tag; repr = read_str () })
      | 0x2d ->
          let dialect = read_str () in
          let name = read_str () in
          attr (Attr.Dyn_attr { dialect; name; params = read_attrs () })
      | t -> cfail c "unknown pool entry tag 0x%02x" t c.c_pos
    in
    pool.(i) <- entry;
    filled := i + 1
  done;
  (ty_at, attr_at)

let loc_of file line col =
  if file = "" && line = 0 then Loc.unknown
  else Loc.point { Loc.file; line; col; offset = 0 }

(* ---------------- module decoding ---------------- *)

(* One signature-table row: what every op of the row shares. *)
type row = {
  r_name : string;
  r_operands : int;
  r_results : Attr.ty array;  (** read, not retained, by each op *)
  r_attrs : (string * Attr.t) list;
  r_successors : int;
  r_regions : int;
  mutable r_sig : Graph.op_sig;
      (** {!Context.sig_entry}'s entry for the row's first op; [no_sig]
          until that op is decoded *)
}

type mstate = {
  ms_strs : string array;
  ms_ty_at : int -> Attr.ty;
  ms_attr_at : int -> Attr.t;
  ms_rows : row array;  (** [[||]] in a version 1 document *)
  ms_relative : bool;
      (** value references count back from [ms_next] (version 2) rather
          than spell the index (version 1) *)
  ms_vals : Graph.value array;  (** [unbound] until used or defined *)
  mutable ms_next : int;  (** the next fresh value index (version 2) *)
  mutable ms_line : int;  (** the previous op's line (version 2) *)
  mutable ms_forwards : (int * Graph.value) list;
  ms_budget : Limits.budget;
      (** session-wide (spans documents in a multi-doc buffer); blown
          budgets raise {!Diag.Fatal_exn} and end the whole session *)
  ms_ctx : Context.t option;  (** [None] in a transient read *)
  ms_doc_loc : Loc.t;  (** the start of the file: where unlocated errors go *)
  mutable ms_res : int array;
      (** scratch: the value indices of the results of the op being
          decoded; a nested decode reuses it *)
}

(* The one mark of an index nothing has bound yet; never handed out. *)
let unbound : Graph.value =
  { v_id = -1; v_ty = Attr.none; v_def = Graph.Released; v_first_use = None }

(* The value index a reference names: version 1 spells the index; version
   2 counts back from the next fresh index, 0 being that index itself. *)
let read_index c st =
  let k = read_uv c in
  if not st.ms_relative then k
  else if k = 0 then begin
    let i = st.ms_next in
    st.ms_next <- i + 1;
    i
  end
  else if k > st.ms_next then
    cfail c "value reference %d before the first value" k c.c_pos
  else st.ms_next - k

let ms_use c st idx =
  if idx < 0 || idx >= Array.length st.ms_vals then
    cfail c "value index %d out of range" idx c.c_pos;
  let v = st.ms_vals.(idx) in
  if v != unbound then v
  else begin
    let v = Graph.Value.forward_ref (Printf.sprintf "bc%d" idx) in
    st.ms_vals.(idx) <- v;
    st.ms_forwards <- (idx, v) :: st.ms_forwards;
    v
  end

(* Bind index [idx] to the fresh value [v] (an op result or block argument
   just created). If a use already allocated a placeholder at [idx], patch
   it in place — preserving the identity its uses were linked to — exactly
   as the textual parser's [define_value] does. *)
let ms_def c st idx (v : Graph.value) =
  if idx < 0 || idx >= Array.length st.ms_vals then
    cfail c "value index %d out of range" idx c.c_pos;
  match st.ms_vals.(idx) with
  | ph when ph == unbound ->
      st.ms_vals.(idx) <- v;
      v
  | { v_def = Graph.Forward_ref _; _ } as ph ->
      ph.v_ty <- v.v_ty;
      ph.v_def <- v.v_def;
      (match v.v_def with
      | Graph.Op_result { op; index } -> op.op_results.(index) <- ph
      | Graph.Block_arg { block; index } -> block.blk_args.(index) <- ph
      | _ -> ());
      st.ms_forwards <- List.filter (fun (i, _) -> i <> idx) st.ms_forwards;
      ph
  | _ -> cfail c "value index %d defined twice" idx c.c_pos

let check_unique_keys c attrs =
  match Attr.duplicate_key attrs with
  | Some k -> cfail c "%s" (Attr.duplicate_key_message k) c.c_pos
  | None -> ()

(* The signature table, checked once: every reference in range, no
   repeated attribute name. A row's operand types are read for their
   check only: an op's operand types are those of the values it uses. *)
let read_sigtab c strs ty_at attr_at =
  let n = read_count c "signature table" in
  read_array n (fun _ ->
      let r_name = str_at c strs (read_uv c) in
      let r_operands = read_count c "operand" in
      for _ = 1 to r_operands do
        ignore (ty_at (read_uv c))
      done;
      let n_results = read_count c "result" in
      let r_results = read_array n_results (fun _ -> ty_at (read_uv c)) in
      let r_attrs = read_pairs c strs attr_at (read_count c "attribute") in
      check_unique_keys c r_attrs;
      let r_successors = read_count c "successor" in
      let r_regions = read_count c "region" in
      { r_name; r_operands; r_results; r_attrs; r_successors; r_regions;
        r_sig = Graph.no_sig })

(* The field loops below live at top level with every free variable passed
   as an argument: this is the hot path of [read_module] at 10^6 ops, and
   closure-based loops (a [let rec] nested in the decoder)
   would allocate per op. Value indices land in scratch arrays. *)
let read_operands c st n =
  if n = 0 then [||]
  else if n = 1 then [| ms_use c st (read_index c st) |]
  else begin
    let a = Array.make n (ms_use c st (read_index c st)) in
    for i = 1 to n - 1 do
      a.(i) <- ms_use c st (read_index c st)
    done;
    a
  end

let res_scratch st n =
  if n > Array.length st.ms_res then
    st.ms_res <- Array.make (max n (2 * Array.length st.ms_res)) 0;
  st.ms_res

(* Version 1 result types, read in interleaved (ty, index) order; the
   value indices land in [st.ms_res]. *)
let read_results_v1 c st n =
  if n = 0 then [||]
  else begin
    let res = res_scratch st n in
    let ty0 = st.ms_ty_at (read_uv c) in
    res.(0) <- read_uv c;
    if n = 1 then [| ty0 |]
    else begin
      let tys = Array.make n ty0 in
      for i = 1 to n - 1 do
        tys.(i) <- st.ms_ty_at (read_uv c);
        res.(i) <- read_uv c
      done;
      tys
    end
  end

let rec read_successors c blocks n =
  if n = 0 then []
  else
    let j = read_uv c in
    let b =
      match blocks with
      | Some bs when j >= 0 && j < Array.length bs -> bs.(j)
      | Some _ -> cfail c "successor block index %d out of range" j c.c_pos
      | None -> cfail c "successor outside a region" j c.c_pos
    in
    b :: read_successors c blocks (n - 1)

let tick st loc =
  Limits.tick_op st.ms_budget
    ~loc:(if Loc.is_unknown loc then st.ms_doc_loc else loc)

(* The op's result indices, copied out of the scratch when the op has
   regions: their ops reuse it. *)
let result_indices st n n_regions =
  if n_regions = 0 then st.ms_res else Array.sub st.ms_res 0 n

let define_results c st (op : Graph.op) res_idx =
  for i = 0 to Array.length op.op_results - 1 do
    op.op_results.(i) <- ms_def c st res_idx.(i) op.op_results.(i)
  done

(* A version 2 op: its row, then only what the row does not hold. *)
let rec decode_op c st ~blocks : Graph.op =
  let r = read_uv c in
  if r >= Array.length st.ms_rows then
    cfail c "signature row %d out of range" r c.c_pos;
  let row = st.ms_rows.(r) in
  let file = str_at c st.ms_strs (read_uv c) in
  let line = st.ms_line + unzigzag_int (read_uv c) in
  if line < 0 then cfail c "negative line %d" line c.c_pos;
  st.ms_line <- line;
  let loc = loc_of file line (read_uv c) in
  tick st loc;
  let operands = read_operands c st row.r_operands in
  let n_results = Array.length row.r_results in
  let res = res_scratch st n_results in
  for i = 0 to n_results - 1 do
    res.(i) <- read_index c st
  done;
  let successors = read_successors c blocks row.r_successors in
  let res_idx = result_indices st n_results row.r_regions in
  let regions = decode_regions c st row.r_regions in
  let op =
    Graph.Op.create_prebuilt ~operands ~result_tys:row.r_results
      ~attrs:row.r_attrs ~regions ~successors ~loc ~entry:row.r_sig
      row.r_name
  in
  define_results c st op res_idx;
  (match st.ms_ctx with
  | Some ctx when row.r_sig == Graph.no_sig ->
      row.r_sig <- Context.sig_entry ctx op;
      op.op_sig <- row.r_sig
  | _ -> ());
  op

(* A version 1 op spells its whole signature; it gets its entry when it is
   first verified. *)
and decode_op_v1 c st ~blocks : Graph.op =
  let name = str_at c st.ms_strs (read_uv c) in
  let file = str_at c st.ms_strs (read_uv c) in
  let line = read_uv c in
  let loc = loc_of file line (read_uv c) in
  tick st loc;
  let operands = read_operands c st (read_count c "operand") in
  let n_results = read_count c "result" in
  let result_tys = read_results_v1 c st n_results in
  let attrs =
    read_pairs c st.ms_strs st.ms_attr_at (read_count c "attribute")
  in
  check_unique_keys c attrs;
  let successors = read_successors c blocks (read_count c "successor") in
  let n_regions = read_count c "region" in
  let res_idx = result_indices st n_results n_regions in
  let regions = decode_regions c st n_regions in
  let op =
    Graph.Op.create_prebuilt ~operands ~result_tys ~attrs ~regions
      ~successors ~loc ~entry:Graph.no_sig name
  in
  define_results c st op res_idx;
  op

and decode_regions c st n =
  if n = 0 then []
  else
    let r = decode_region c st in
    r :: decode_regions c st (n - 1)

and decode_region c st : Graph.region =
  Limits.enter_region st.ms_budget ~loc:st.ms_doc_loc;
  Fun.protect ~finally:(fun () -> Limits.leave_region st.ms_budget)
  @@ fun () ->
  let rlen = read_uv c in
  if rlen > remaining c then cfail c "truncated region (%d bytes)" rlen c.c_pos;
  let rend = c.c_pos + rlen in
  let n_blocks = read_count c "block" in
  let blocks =
    read_array n_blocks (fun _ ->
        let n_args = read_count c "block argument" in
        let arg_idx = if n_args = 0 then [||] else Array.make n_args 0 in
        let rec arg_tys_at i =
          if i = n_args then []
          else
            let ty = st.ms_ty_at (read_uv c) in
            arg_idx.(i) <- read_index c st;
            ty :: arg_tys_at (i + 1)
        in
        let b = Graph.Block.create ~arg_tys:(arg_tys_at 0) () in
        for i = 0 to n_args - 1 do
          b.Graph.blk_args.(i) <- ms_def c st arg_idx.(i) b.Graph.blk_args.(i)
        done;
        b)
  in
  Array.iter
    (fun b ->
      let n_ops = read_count c "op" in
      for _ = 1 to n_ops do
        Graph.Block.append b (decode_any c st ~blocks:(Some blocks))
      done)
    blocks;
  if c.c_pos <> rend then
    cfail c "region length out of sync (expected end %d)" rend c.c_pos;
  Graph.Region.create ~blocks:(Array.to_list blocks) ()

and decode_any c st ~blocks =
  if st.ms_relative then decode_op c st ~blocks else decode_op_v1 c st ~blocks

(* ---------------- streaming session ---------------- *)

(* Mirrors [Ir.Parser.Stream]: an op is yielded only once every forward
   reference pending at its decode has resolved, so operands are exactly
   what the materializing reader would produce; the pending FIFO preserves
   document order. *)

type pending = { pd_op : Graph.op; mutable pd_forwards : Graph.value list }

type docstate = {
  d_cur : cursor;  (* limited to this document's payload *)
  d_state : mstate;
  d_lens : int array;
  mutable d_i : int;
}

module Stream = struct
  type session = {
    s_cur : cursor;  (* spans the whole (possibly multi-document) buffer *)
    s_engine : Diag.Engine.t;
    s_result :
      (Graph.op option, Diag.t) result -> (Graph.op option, Diag.t) result;
        (* the caller's answer ({!Diag.Engine.fail_fast}) *)
    s_queue : pending Queue.t;
    s_budget : Limits.budget;  (* shared by every document of the buffer *)
    s_ctx : Context.t option;  (* where signature entries come from *)
    mutable s_doc : docstate option;
    mutable s_failed : Diag.t option;
    mutable s_eof : bool;
  }

  let create ?(file = "<bytecode>") ?engine ?(limits = Limits.unlimited)
      ?(transient = false) (ctx : Context.t) s =
    let budget = Limits.budget limits in
    let engine, s_result = Diag.Engine.fail_fast engine in
    let sp =
      {
        s_cur = cursor ~file s;
        s_engine = engine;
        s_result;
        s_queue = Queue.create ();
        s_budget = budget;
        s_ctx = (if transient then None else Some ctx);
        s_doc = None;
        s_failed = None;
        s_eof = false;
      }
    in
    (* An over-budget payload fails like everything else in a session — a
       sticky [Error] from [next], never an exception out of [create]. *)
    (match
       Diag.protect_any (fun () ->
           Limits.check_payload budget
             ~loc:(Loc.point (Loc.start_of_file file))
             (String.length s))
     with
    | Ok () -> ()
    | Error d ->
        Diag.Engine.emit engine d;
        sp.s_failed <- Some d;
        sp.s_eof <- true);
    sp

  (* Errors are emitted and the session recovers at the next document —
     except from budget violations, which must stay sticky: resuming after
     "too many ops" would keep consuming the very resource that ran out. *)
  let fail sp d =
    Diag.Engine.emit sp.s_engine d;
    if Limits.is_budget_code d.Diag.code then begin
      sp.s_failed <- Some d;
      Error d
    end
    else Ok ()

  (* End-of-document: report every value still undefined, then mark queued
     ops deliverable as-is — a document boundary is final, nothing later
     can resolve them. *)
  let finish_doc sp doc =
    let outcome =
      match doc.d_state.ms_forwards with
      | [] -> Ok ()
      | forwards ->
          fail sp
            (Diag.error
               ~loc:(Loc.point (Loc.start_of_file sp.s_cur.c_file))
               "malformed bytecode: %d value index%s used but never defined"
               (List.length forwards)
               (if List.length forwards = 1 then "" else "es"))
    in
    Queue.iter (fun p -> p.pd_forwards <- []) sp.s_queue;
    sp.s_doc <- None;
    outcome

  (* Abandon a document after a decode error: jump to its end so the next
     document (if any) still parses, and hand queued ops out as-is. *)
  let abandon_doc sp doc =
    sp.s_cur.c_pos <- doc.d_cur.c_end;
    Queue.iter (fun p -> p.pd_forwards <- []) sp.s_queue;
    sp.s_doc <- None

  let open_doc sp =
    match Diag.protect_any (fun () -> read_header sp.s_cur) with
    | Error d ->
        (* Header garbage: no payload length to resync on. *)
        sp.s_eof <- true;
        fail sp d
    | Ok h -> (
        let doc_cur =
          {
            c_file = sp.s_cur.c_file;
            c_buf = sp.s_cur.c_buf;
            c_pos = sp.s_cur.c_pos;
            c_end = h.dh_payload_end;
          }
        in
        match
          Diag.protect_any (fun () ->
              Failpoints.hit "bytecode.decode";
              let strs = read_strtab doc_cur in
              let ty_at, attr_at =
                read_pool ~intern:(Option.is_some sp.s_ctx) doc_cur strs
              in
              let relative = h.dh_version >= 2 in
              let rows =
                if relative then read_sigtab doc_cur strs ty_at attr_at
                else [||]
              in
              let total_vals = read_uv doc_cur in
              if total_vals > h.dh_payload_end - sp.s_cur.c_pos then
                cfail doc_cur "implausible value count %d" total_vals
                  doc_cur.c_pos;
              let n_ops = read_count doc_cur "top-level op" in
              let lens = read_array n_ops (fun _ -> read_uv doc_cur) in
              {
                d_cur = doc_cur;
                d_state =
                  {
                    ms_strs = strs;
                    ms_ty_at = ty_at;
                    ms_attr_at = attr_at;
                    ms_rows = rows;
                    ms_relative = relative;
                    ms_vals = Array.make total_vals unbound;
                    ms_next = 0;
                    ms_line = 0;
                    ms_forwards = [];
                    ms_budget = sp.s_budget;
                    ms_ctx = sp.s_ctx;
                    ms_doc_loc = Loc.point (Loc.start_of_file doc_cur.c_file);
                    ms_res = Array.make 8 0;
                  };
                d_lens = lens;
                d_i = 0;
              })
        with
        | Error d ->
            sp.s_cur.c_pos <- h.dh_payload_end;
            fail sp d
        | Ok doc ->
            sp.s_doc <- Some doc;
            sp.s_cur.c_pos <- h.dh_payload_end;
            Ok ())

  let head_ready sp =
    match Queue.peek_opt sp.s_queue with
    | None -> false
    | Some p ->
        p.pd_forwards <-
          List.filter
            (fun (v : Graph.value) ->
              match v.v_def with Graph.Forward_ref _ -> true | _ -> false)
            p.pd_forwards;
        p.pd_forwards = []

  let decode_top doc =
    let len = doc.d_lens.(doc.d_i) in
    let c = doc.d_cur in
    if len > remaining c then cfail c "truncated op (%d bytes)" len c.c_pos;
    let op_end = c.c_pos + len in
    let op = decode_any c doc.d_state ~blocks:None in
    if c.c_pos <> op_end then
      cfail c "op length out of sync (expected end %d)" op_end c.c_pos;
    doc.d_i <- doc.d_i + 1;
    op

  let rec pull sp : (Graph.op option, Diag.t) result =
    match sp.s_failed with
    | Some d -> Error d
    | None ->
        if head_ready sp then Ok (Some (Queue.pop sp.s_queue).pd_op)
        else begin
          match sp.s_doc with
          | Some doc when doc.d_i < Array.length doc.d_lens -> (
              (* [match ... with exception] rather than [protect_any]: this
                 runs once per op and the thunk closure would be its only
                 allocation. The cold exception arm re-raises into
                 [protect_any] to get the standard conversion. *)
              match decode_top doc with
              | exception e -> (
                  let r = Diag.protect_any (fun () -> raise e) in
                  match r with
                  | Ok _ -> assert false
                  | Error d -> (
                      abandon_doc sp doc;
                      match fail sp d with
                      | Error d -> Error d
                      | Ok () -> pull sp))
              | op when
                  (match doc.d_state.ms_forwards with
                  | [] -> true
                  | _ :: _ -> false)
                  && Queue.is_empty sp.s_queue ->
                  (* Nothing unresolved and nothing queued ahead: the op is
                     deliverable as-is, no need to round-trip the FIFO. *)
                  Ok (Some op)
              | op ->
                  let forwards =
                    List.map snd doc.d_state.ms_forwards
                    |> List.filter (fun (v : Graph.value) ->
                           match v.v_def with
                           | Graph.Forward_ref _ -> true
                           | _ -> false)
                  in
                  Queue.push { pd_op = op; pd_forwards = forwards } sp.s_queue;
                  pull sp)
          | Some doc -> (
              match finish_doc sp doc with
              | Error d -> Error d
              | Ok () -> pull sp)
          | None ->
              if remaining sp.s_cur = 0 then
                if Queue.is_empty sp.s_queue then begin
                  sp.s_eof <- true;
                  Ok None
                end
                else Ok (Some (Queue.pop sp.s_queue).pd_op)
              else begin
                match open_doc sp with
                | Error d -> Error d
                | Ok () -> if sp.s_eof then Ok None else pull sp
              end
        end

  let next sp = sp.s_result (pull sp)

  let release = Graph.release
end

let read_module ?file ?engine ?limits ?transient ctx s =
  let sp = Stream.create ?file ?engine ?limits ?transient ctx s in
  let rec drain acc =
    match Stream.next sp with
    | Ok None -> Ok (List.rev acc)
    | Ok (Some op) -> drain (op :: acc)
    | Error d -> Error d
  in
  drain []
