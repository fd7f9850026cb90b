(* Versioned binary serialization for IR modules and resolved IRDL dialect
   specs (ROADMAP "binary bytecode + dialect distribution").

   A bytecode buffer is a sequence of self-delimiting documents:

     document := magic version:uvarint kind:u8 payload_len:uvarint payload

   [magic] is 8 bytes ("\xC9IRDLBC\x00": the lead byte is an invalid UTF-8
   start so no textual IR can collide), [kind] is 0 for an IR module and 1
   for a pack of dialect definitions. Because every document carries its
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
   reference is the absolute index. Dialect payloads are the same at both
   versions.

   The reader is fail-soft by construction: every read is bounds-checked
   against the enclosing document, counts are sanity-checked against the
   bytes that remain, and all errors surface as located diagnostics
   ([Diag.Error_exn] / an engine emit), never as a crash. *)

open Irdl_support
module Graph = Irdl_ir.Graph
module Attr = Irdl_ir.Attr
module Context = Irdl_ir.Context
module Id_slots = Irdl_ir.Id_slots
module Resolve = Irdl_core.Resolve
module Ast = Irdl_core.Ast
module C = Irdl_core.Constraint_expr

let magic = "\xc9IRDLBC\x00"
let magic_len = String.length magic
let version = 2

type kind = Module_doc | Dialect_doc

let kind_code = function Module_doc -> 0 | Dialect_doc -> 1

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

(* A dialect document's location: absolute, as the file, line and column. *)
let add_loc w buf (loc : Loc.t) =
  if Loc.is_unknown loc then begin
    add_uv buf (str_ref w "");
    add_uv buf 0;
    add_uv buf 0
  end
  else begin
    add_uv buf (str_ref w loc.start_pos.file);
    add_uv buf loc.start_pos.line;
    add_uv buf loc.start_pos.col
  end

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

  let assemble kind payload =
    let doc = Buffer.create (Buffer.length payload + 16) in
    Buffer.add_string doc magic;
    add_uv doc version;
    Buffer.add_char doc (Char.chr (kind_code kind));
    add_uv doc (Buffer.length payload);
    Buffer.add_buffer doc payload;
    Buffer.contents doc

  let tables w payload =
    add_uv payload w.w_n_strings;
    Buffer.add_buffer payload w.w_strtab;
    add_uv payload w.w_n_pool;
    Buffer.add_buffer payload w.w_pool

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
      tables w payload;
      add_uv payload (Row_tbl.length w.w_rows);
      Buffer.add_buffer payload w.w_sigtab;
      add_uv payload w.w_n_vals;
      add_uv payload w.w_n_ops;
      Buffer.add_buffer payload w.w_index;
      Buffer.add_buffer payload w.w_ops;
      Ok (assemble Module_doc payload)
    end

  let module_to_string ops =
    let w = create () in
    match Diag.protect (fun () -> List.iter (push_op w) ops) with
    | Error d -> Error d
    | Ok () -> close w

  (* ---------------- dialect specs ---------------- *)

  let add_opt_str w buf = function
    | None -> Buffer.add_char buf '\x00'
    | Some s ->
        Buffer.add_char buf '\x01';
        add_uv buf (str_ref w s)

  let rec encode_constraint w buf (c : C.t) =
    let tag t = Buffer.add_char buf (Char.chr t) in
    let clist cs =
      add_uv buf (List.length cs);
      List.iter (encode_constraint w buf) cs
    in
    let opt_params = function
      | None -> Buffer.add_char buf '\x00'
      | Some cs ->
          Buffer.add_char buf '\x01';
          clist cs
    in
    match c with
    | C.Any -> tag 0
    | C.Any_type -> tag 1
    | C.Any_attr -> tag 2
    | C.Eq a ->
        tag 3;
        add_uv buf (attr_ref w a)
    | C.Base_type { dialect; name; params } ->
        tag 4;
        add_uv buf (str_ref w dialect);
        add_uv buf (str_ref w name);
        opt_params params
    | C.Base_attr { dialect; name; params } ->
        tag 5;
        add_uv buf (str_ref w dialect);
        add_uv buf (str_ref w name);
        opt_params params
    | C.Int_param { ik_width; ik_signedness } ->
        tag 6;
        add_uv buf ik_width;
        Buffer.add_char buf (Char.chr (signedness_code ik_signedness))
    | C.Float_param None -> tag 7
    | C.Float_param (Some k) ->
        tag 8;
        Buffer.add_char buf (Char.chr (float_kind_code k))
    | C.String_param -> tag 9
    | C.Symbol_param -> tag 10
    | C.Bool_param -> tag 11
    | C.Location_param -> tag 12
    | C.Type_id_param -> tag 13
    | C.Enum_param { dialect; enum } ->
        tag 14;
        add_uv buf (str_ref w dialect);
        add_uv buf (str_ref w enum)
    | C.Array_any -> tag 15
    | C.Array_of c ->
        tag 16;
        encode_constraint w buf c
    | C.Array_exact cs ->
        tag 17;
        clist cs
    | C.Any_of cs ->
        tag 18;
        clist cs
    | C.And cs ->
        tag 19;
        clist cs
    | C.Not c ->
        tag 20;
        encode_constraint w buf c
    | C.Var { v_name; v_constraint } ->
        tag 21;
        add_uv buf (str_ref w v_name);
        encode_constraint w buf v_constraint
    | C.Native { name; base; snippets } ->
        tag 22;
        add_uv buf (str_ref w name);
        encode_constraint w buf base;
        add_uv buf (List.length snippets);
        List.iter (fun s -> add_uv buf (str_ref w s)) snippets
    | C.Native_param { name; class_name } ->
        tag 23;
        add_uv buf (str_ref w name);
        add_uv buf (str_ref w class_name)
    | C.Variadic c ->
        tag 24;
        encode_constraint w buf c
    | C.Optional c ->
        tag 25;
        encode_constraint w buf c

  let encode_slot w buf (s : Resolve.slot) =
    add_uv buf (str_ref w s.s_name);
    encode_constraint w buf s.s_constraint;
    add_loc w buf s.s_loc

  let encode_slots w buf slots =
    add_uv buf (List.length slots);
    List.iter (encode_slot w buf) slots

  let encode_strs w buf ss =
    add_uv buf (List.length ss);
    List.iter (fun s -> add_uv buf (str_ref w s)) ss

  let encode_typedef w buf (td : Resolve.typedef) =
    add_uv buf (str_ref w td.td_name);
    add_opt_str w buf td.td_summary;
    encode_slots w buf td.td_params;
    encode_strs w buf td.td_cpp;
    add_loc w buf td.td_loc

  let encode_region_def w buf (r : Resolve.region) =
    add_uv buf (str_ref w r.reg_name);
    encode_slots w buf r.reg_args;
    add_opt_str w buf r.reg_terminator

  let encode_op_def w buf (o : Resolve.op) =
    add_uv buf (str_ref w o.op_name);
    add_opt_str w buf o.op_summary;
    add_uv buf (List.length o.op_vars);
    List.iter
      (fun (v : C.var) ->
        add_uv buf (str_ref w v.v_name);
        encode_constraint w buf v.v_constraint)
      o.op_vars;
    encode_slots w buf o.op_operands;
    encode_slots w buf o.op_results;
    encode_slots w buf o.op_attributes;
    add_uv buf (List.length o.op_regions);
    List.iter (encode_region_def w buf) o.op_regions;
    (match o.op_successors with
    | None -> Buffer.add_char buf '\x00'
    | Some ss ->
        Buffer.add_char buf '\x01';
        encode_strs w buf ss);
    add_opt_str w buf o.op_format;
    encode_strs w buf o.op_cpp;
    add_loc w buf o.op_loc

  let encode_enum w buf (e : Ast.enum_def) =
    add_uv buf (str_ref w e.e_name);
    encode_strs w buf e.e_cases;
    add_loc w buf e.e_loc

  let encode_dialect w buf (dl : Resolve.dialect) =
    add_uv buf (str_ref w dl.dl_name);
    add_uv buf (List.length dl.dl_types);
    List.iter (encode_typedef w buf) dl.dl_types;
    add_uv buf (List.length dl.dl_attrs);
    List.iter (encode_typedef w buf) dl.dl_attrs;
    add_uv buf (List.length dl.dl_ops);
    List.iter (encode_op_def w buf) dl.dl_ops;
    add_uv buf (List.length dl.dl_enums);
    List.iter (encode_enum w buf) dl.dl_enums

  let dialects_to_string dls =
    let w = create () in
    let body = Buffer.create 512 in
    match
      Diag.protect (fun () ->
          add_uv body (List.length dls);
          List.iter (encode_dialect w body) dls)
    with
    | Error d -> Error d
    | Ok () ->
        let payload = Buffer.create (Buffer.length body + 256) in
        tables w payload;
        Buffer.add_buffer payload body;
        Ok (assemble Dialect_doc payload)
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

type doc_header = { dh_version : int; dh_kind : kind; dh_payload_end : int }

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
  let kind =
    match read_u8 c with
    | 0 -> Module_doc
    | 1 -> Dialect_doc
    | k -> cfail c "unknown document kind %d" k c.c_pos
  in
  let plen = read_uv c in
  if plen > remaining c then
    cfail c "truncated document (payload of %d bytes, %d remain)" plen
      (remaining c) c.c_pos;
  { dh_version = v; dh_kind = kind; dh_payload_end = c.c_pos + plen }

type doc_info = {
  di_kind : kind;
  di_version : int;
  di_offset : int;
  di_length : int;
}

let documents ?file s =
  let c = cursor ?file s in
  let rec go acc =
    if remaining c = 0 then List.rev acc
    else
      let off = c.c_pos in
      match Diag.protect (fun () -> read_header c) with
      | Error _ ->
          (* Undecodable tail: one opaque trailing slice, so a consumer
             still visits (and reports) it. *)
          List.rev
            ({
               di_kind = Module_doc;
               di_version = 0;
               di_offset = off;
               di_length = remaining c;
             }
            :: acc)
      | Ok h ->
          c.c_pos <- h.dh_payload_end;
          go
            ({
               di_kind = h.dh_kind;
               di_version = h.dh_version;
               di_offset = off;
               di_length = h.dh_payload_end - off;
             }
            :: acc)
  in
  go []

let split_documents ?file s =
  match documents ?file s with
  | [] | [ _ ] -> [ s ]
  | docs ->
      List.map (fun d -> String.sub s d.di_offset d.di_length) docs

(* [Array.init]'s/[List.init]'s application order is unspecified; cursor
   reads need strict left-to-right sequencing. *)
let read_list n f =
  let rec go i acc =
    if i = n then List.rev acc
    else
      let x = f i in
      go (i + 1) (x :: acc)
  in
  go 0 []

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

type pool_entry = P_ty of Attr.ty | P_attr of Attr.t

let read_pool c strs =
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
  let read_str () = str_at c strs (read_uv c) in
  let read_tys () =
    let k = read_count c "type list" in
    read_list k (fun _ -> ty_at (read_uv c))
  in
  let read_attrs () =
    let k = read_count c "attribute list" in
    read_list k (fun _ -> attr_at (read_uv c))
  in
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
      | 0x20 -> P_attr Attr.unit
      | 0x21 -> P_attr (Attr.bool (read_u8 c <> 0))
      | 0x22 ->
          let v = read_v64 c in
          P_attr (Attr.int ~ty:(ty_at (read_uv c)) v)
      | 0x23 ->
          let bits = read_v64 c in
          P_attr
            (Attr.float ~ty:(ty_at (read_uv c)) (Int64.float_of_bits bits))
      | 0x24 -> P_attr (Attr.string (read_str ()))
      | 0x25 -> P_attr (Attr.array (read_attrs ()))
      | 0x26 ->
          let k = read_count c "dictionary" in
          let entries =
            read_list k (fun _ ->
                let key = read_str () in
                (key, attr_at (read_uv c)))
          in
          P_attr (Attr.dict entries)
      | 0x27 -> P_attr (Attr.typ (ty_at (read_uv c)))
      | 0x28 ->
          let dialect = read_str () in
          let enum = read_str () in
          P_attr (Attr.enum ~dialect ~enum (read_str ()))
      | 0x29 -> P_attr (Attr.symbol (read_str ()))
      | 0x2a ->
          let file = read_str () in
          let line = read_uv c in
          P_attr (Attr.location ~file ~line ~col:(read_uv c))
      | 0x2b -> P_attr (Attr.type_id (read_str ()))
      | 0x2c ->
          let tag = read_str () in
          P_attr (Attr.opaque ~tag (read_str ()))
      | 0x2d ->
          let dialect = read_str () in
          let name = read_str () in
          P_attr (Attr.dyn_attr ~dialect ~name (read_attrs ()))
      | t -> cfail c "unknown pool entry tag 0x%02x" t c.c_pos
    in
    pool.(i) <- entry;
    filled := i + 1
  done;
  (ty_at, attr_at)

let loc_of file line col =
  if file = "" && line = 0 then Loc.unknown
  else Loc.point { Loc.file; line; col; offset = 0 }

let read_loc c strs =
  let file = str_at c strs (read_uv c) in
  let line = read_uv c in
  loc_of file line (read_uv c)

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
  ms_ctx : Context.t;
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
      let n_attrs = read_count c "attribute" in
      let r_attrs =
        read_list n_attrs (fun _ ->
            let key = str_at c strs (read_uv c) in
            (key, attr_at (read_uv c)))
      in
      check_unique_keys c r_attrs;
      let r_successors = read_count c "successor" in
      let r_regions = read_count c "region" in
      { r_name; r_operands; r_results; r_attrs; r_successors; r_regions;
        r_sig = Graph.no_sig })

(* The field loops below live at top level with every free variable passed
   as an argument: this is the hot path of [read_module] at 10^6 ops, and
   closure-based loops ([read_list], or a [let rec] nested in the decoder)
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

let rec read_attr_pairs c st n =
  if n = 0 then []
  else
    let key = str_at c st.ms_strs (read_uv c) in
    let a = st.ms_attr_at (read_uv c) in
    (key, a) :: read_attr_pairs c st (n - 1)

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
  if row.r_sig == Graph.no_sig then begin
    row.r_sig <- Context.sig_entry st.ms_ctx op;
    op.op_sig <- row.r_sig
  end;
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
  let attrs = read_attr_pairs c st (read_count c "attribute") in
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
    s_ctx : Context.t;  (* what op names are resolved against *)
    mutable s_doc : docstate option;
    mutable s_failed : Diag.t option;
    mutable s_eof : bool;
  }

  let create ?(file = "<bytecode>") ?engine ?(limits = Limits.unlimited)
      (ctx : Context.t) s =
    let budget = Limits.budget limits in
    let engine, s_result = Diag.Engine.fail_fast engine in
    let sp =
      {
        s_cur = cursor ~file s;
        s_engine = engine;
        s_result;
        s_queue = Queue.create ();
        s_budget = budget;
        s_ctx = ctx;
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
    | Ok h when h.dh_kind <> Module_doc ->
        sp.s_cur.c_pos <- h.dh_payload_end;
        fail sp
          (Diag.error
             ~loc:(Loc.point (Loc.start_of_file sp.s_cur.c_file))
             "bytecode document holds dialect definitions, expected an IR \
              module (load it with -d)")
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
              let ty_at, attr_at = read_pool doc_cur strs in
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

let read_module ?file ?engine ?limits ctx s =
  let sp = Stream.create ?file ?engine ?limits ctx s in
  let rec drain acc =
    match Stream.next sp with
    | Ok None -> Ok (List.rev acc)
    | Ok (Some op) -> drain (op :: acc)
    | Error d -> Error d
  in
  drain []

(* ---------------- dialect decoding ---------------- *)

let read_opt_str c strs =
  match read_u8 c with
  | 0 -> None
  | 1 -> Some (str_at c strs (read_uv c))
  | f -> cfail c "bad option flag %d" f c.c_pos

let rec decode_constraint c strs attr_at : C.t =
  let clist () =
    let n = read_count c "constraint list" in
    read_list n (fun _ -> decode_constraint c strs attr_at)
  in
  let opt_params () =
    match read_u8 c with
    | 0 -> None
    | 1 -> Some (clist ())
    | f -> cfail c "bad option flag %d" f c.c_pos
  in
  let read_str () = str_at c strs (read_uv c) in
  match read_u8 c with
  | 0 -> C.Any
  | 1 -> C.Any_type
  | 2 -> C.Any_attr
  | 3 -> C.Eq (attr_at (read_uv c))
  | 4 ->
      let dialect = read_str () in
      let name = read_str () in
      C.Base_type { dialect; name; params = opt_params () }
  | 5 ->
      let dialect = read_str () in
      let name = read_str () in
      C.Base_attr { dialect; name; params = opt_params () }
  | 6 ->
      let ik_width = read_uv c in
      let ik_signedness =
        match read_u8 c with
        | 0 -> Attr.Signless
        | 1 -> Attr.Signed
        | 2 -> Attr.Unsigned
        | s -> cfail c "bad signedness code %d" s c.c_pos
      in
      C.Int_param { ik_width; ik_signedness }
  | 7 -> C.Float_param None
  | 8 ->
      C.Float_param
        (Some
           (match read_u8 c with
           | 0 -> Attr.BF16
           | 1 -> Attr.F16
           | 2 -> Attr.F32
           | 3 -> Attr.F64
           | k -> cfail c "bad float kind code %d" k c.c_pos))
  | 9 -> C.String_param
  | 10 -> C.Symbol_param
  | 11 -> C.Bool_param
  | 12 -> C.Location_param
  | 13 -> C.Type_id_param
  | 14 ->
      let dialect = read_str () in
      C.Enum_param { dialect; enum = read_str () }
  | 15 -> C.Array_any
  | 16 -> C.Array_of (decode_constraint c strs attr_at)
  | 17 -> C.Array_exact (clist ())
  | 18 -> C.Any_of (clist ())
  | 19 -> C.And (clist ())
  | 20 -> C.Not (decode_constraint c strs attr_at)
  | 21 ->
      let v_name = read_str () in
      C.Var { v_name; v_constraint = decode_constraint c strs attr_at }
  | 22 ->
      let name = read_str () in
      let base = decode_constraint c strs attr_at in
      let n = read_count c "snippet list" in
      C.Native { name; base; snippets = read_list n (fun _ -> read_str ()) }
  | 23 ->
      let name = read_str () in
      C.Native_param { name; class_name = read_str () }
  | 24 -> C.Variadic (decode_constraint c strs attr_at)
  | 25 -> C.Optional (decode_constraint c strs attr_at)
  | t -> cfail c "unknown constraint tag %d" t c.c_pos

let decode_slot c strs attr_at : Resolve.slot =
  let s_name = str_at c strs (read_uv c) in
  let s_constraint = decode_constraint c strs attr_at in
  { s_name; s_constraint; s_loc = read_loc c strs }

let decode_slots c strs attr_at =
  let n = read_count c "slot list" in
  read_list n (fun _ -> decode_slot c strs attr_at)

let decode_strs c strs =
  let n = read_count c "string list" in
  read_list n (fun _ -> str_at c strs (read_uv c))

let decode_typedef c strs attr_at : Resolve.typedef =
  let td_name = str_at c strs (read_uv c) in
  let td_summary = read_opt_str c strs in
  let td_params = decode_slots c strs attr_at in
  let td_cpp = decode_strs c strs in
  { td_name; td_summary; td_params; td_cpp; td_loc = read_loc c strs }

let decode_region_def c strs attr_at : Resolve.region =
  let reg_name = str_at c strs (read_uv c) in
  let reg_args = decode_slots c strs attr_at in
  { reg_name; reg_args; reg_terminator = read_opt_str c strs }

let decode_op_def c strs attr_at : Resolve.op =
  let op_name = str_at c strs (read_uv c) in
  let op_summary = read_opt_str c strs in
  let n_vars = read_count c "variable list" in
  let op_vars =
    read_list n_vars (fun _ ->
        let v_name = str_at c strs (read_uv c) in
        { C.v_name; v_constraint = decode_constraint c strs attr_at })
  in
  let op_operands = decode_slots c strs attr_at in
  let op_results = decode_slots c strs attr_at in
  let op_attributes = decode_slots c strs attr_at in
  let n_regions = read_count c "region list" in
  let op_regions = read_list n_regions (fun _ -> decode_region_def c strs attr_at) in
  let op_successors =
    match read_u8 c with
    | 0 -> None
    | 1 -> Some (decode_strs c strs)
    | f -> cfail c "bad option flag %d" f c.c_pos
  in
  let op_format = read_opt_str c strs in
  let op_cpp = decode_strs c strs in
  {
    op_name;
    op_summary;
    op_vars;
    op_operands;
    op_results;
    op_attributes;
    op_regions;
    op_successors;
    op_format;
    op_cpp;
    op_loc = read_loc c strs;
  }

let decode_enum c strs : Ast.enum_def =
  let e_name = str_at c strs (read_uv c) in
  let e_cases = decode_strs c strs in
  { e_name; e_cases; e_loc = read_loc c strs }

let decode_dialect c strs attr_at : Resolve.dialect =
  let dl_name = str_at c strs (read_uv c) in
  let n_types = read_count c "type list" in
  let dl_types = read_list n_types (fun _ -> decode_typedef c strs attr_at) in
  let n_attrs = read_count c "attribute list" in
  let dl_attrs = read_list n_attrs (fun _ -> decode_typedef c strs attr_at) in
  let n_ops = read_count c "op list" in
  let dl_ops = read_list n_ops (fun _ -> decode_op_def c strs attr_at) in
  let n_enums = read_count c "enum list" in
  let dl_enums = read_list n_enums (fun _ -> decode_enum c strs) in
  {
    dl_name;
    dl_types;
    dl_attrs;
    dl_ops;
    dl_enums;
    (* The surface AST is not serialized (it is introspection-only); a
       minimal one is rebuilt so enum lookups through it keep working. *)
    dl_ast =
      {
        Ast.d_name = dl_name;
        d_items = List.map (fun e -> Ast.I_enum e) dl_enums;
        d_loc = Loc.unknown;
      };
  }

let read_dialects ?(file = "<bytecode>") ?engine s =
  let engine, result = Diag.Engine.fail_fast engine in
  let c = cursor ~file s in
  let rec go acc =
    if remaining c = 0 then List.rev acc
    else
      match Diag.protect_any (fun () -> read_header c) with
      | Error d ->
          Diag.Engine.emit engine d;
          (* No trustworthy payload length: stop here. *)
          List.rev acc
      | Ok h when h.dh_kind <> Dialect_doc ->
          c.c_pos <- h.dh_payload_end;
          Diag.Engine.emit engine
            (Diag.error
               ~loc:(Loc.point (Loc.start_of_file file))
               "bytecode document holds an IR module, expected dialect \
                definitions");
          go acc
      | Ok h -> (
          let dc = { c with c_end = h.dh_payload_end } in
          match
            Diag.protect_any (fun () ->
                let strs = read_strtab dc in
                let _, attr_at = read_pool dc strs in
                let n = read_count dc "dialect" in
                read_list n (fun _ -> decode_dialect dc strs attr_at))
          with
          | Ok dls ->
              c.c_pos <- h.dh_payload_end;
              go (List.rev_append dls acc)
          | Error d ->
              c.c_pos <- h.dh_payload_end;
              Diag.Engine.emit engine d;
              go acc)
  in
  result (Ok (go []))

(* ------------------------------------------------------------------ *)
(* Structural equality (round-trip oracles)                           *)
(* ------------------------------------------------------------------ *)

module Equal = struct
  (* Module equality up to value/block identity and locations: values and
     blocks are paired by definition position (two passes, so forward
     operand references compare correctly), everything else structurally. *)

  exception Differ

  let pair tbl a b =
    match Hashtbl.find_opt tbl a with
    | Some b' -> if b' <> b then raise Differ
    | None -> Hashtbl.add tbl a b

  let module_eq ops1 ops2 =
    let vmap = Hashtbl.create 64 in
    let bmap = Hashtbl.create 16 in
    let rec pair_defs (o1 : Graph.op) (o2 : Graph.op) =
      if Array.length o1.op_results <> Array.length o2.op_results then
        raise Differ;
      Array.iteri
        (fun i (r : Graph.value) ->
          pair vmap r.v_id o2.op_results.(i).Graph.v_id)
        o1.op_results;
      if List.length o1.regions <> List.length o2.regions then raise Differ;
      List.iter2
        (fun (r1 : Graph.region) (r2 : Graph.region) ->
          let bs1 = Graph.Region.blocks r1 and bs2 = Graph.Region.blocks r2 in
          if List.length bs1 <> List.length bs2 then raise Differ;
          List.iter2
            (fun (b1 : Graph.block) (b2 : Graph.block) ->
              pair bmap b1.blk_id b2.blk_id;
              if Array.length b1.blk_args <> Array.length b2.blk_args then
                raise Differ;
              Array.iteri
                (fun i (a : Graph.value) ->
                  pair vmap a.v_id b2.blk_args.(i).Graph.v_id)
                b1.blk_args;
              let ops1 = Graph.Block.ops b1 and ops2 = Graph.Block.ops b2 in
              if List.length ops1 <> List.length ops2 then raise Differ;
              List.iter2 pair_defs ops1 ops2)
            bs1 bs2)
        o1.regions o2.regions
    in
    let rec check (o1 : Graph.op) (o2 : Graph.op) =
      if o1.op_name <> o2.op_name then raise Differ;
      if Array.length o1.op_operands <> Array.length o2.op_operands then
        raise Differ;
      Array.iteri
        (fun i (u : Graph.use) ->
          let v2 = o2.op_operands.(i).Graph.u_value in
          match Hashtbl.find_opt vmap u.u_value.v_id with
          | Some id2 -> if id2 <> v2.v_id then raise Differ
          | None -> raise Differ)
        o1.op_operands;
      Array.iteri
        (fun i (r : Graph.value) ->
          if not (Attr.equal_ty r.v_ty o2.op_results.(i).Graph.v_ty) then
            raise Differ)
        o1.op_results;
      if
        not
          (List.length o1.attrs = List.length o2.attrs
          && List.for_all2
               (fun (k1, a1) (k2, a2) -> k1 = k2 && Attr.equal a1 a2)
               o1.attrs o2.attrs)
      then raise Differ;
      if List.length o1.successors <> List.length o2.successors then
        raise Differ;
      List.iter2
        (fun (b1 : Graph.block) (b2 : Graph.block) ->
          match Hashtbl.find_opt bmap b1.blk_id with
          | Some id2 -> if id2 <> b2.blk_id then raise Differ
          | None -> raise Differ)
        o1.successors o2.successors;
      List.iter2
        (fun (r1 : Graph.region) (r2 : Graph.region) ->
          List.iter2
            (fun (b1 : Graph.block) (b2 : Graph.block) ->
              Array.iteri
                (fun i (a : Graph.value) ->
                  if
                    not
                      (Attr.equal_ty a.v_ty b2.Graph.blk_args.(i).Graph.v_ty)
                  then raise Differ)
                b1.Graph.blk_args;
              List.iter2 check (Graph.Block.ops b1) (Graph.Block.ops b2))
            (Graph.Region.blocks r1) (Graph.Region.blocks r2))
        o1.regions o2.regions
    in
    try
      if List.length ops1 <> List.length ops2 then raise Differ;
      List.iter2 pair_defs ops1 ops2;
      List.iter2 check ops1 ops2;
      true
    with Differ -> false

  (* Dialect equality up to locations and the surface AST. *)

  let rec constraint_eq (a : C.t) (b : C.t) =
    let all l1 l2 =
      List.length l1 = List.length l2 && List.for_all2 constraint_eq l1 l2
    in
    let params_eq p1 p2 =
      match (p1, p2) with
      | None, None -> true
      | Some p1, Some p2 -> all p1 p2
      | _ -> false
    in
    match (a, b) with
    | C.Any, C.Any
    | C.Any_type, C.Any_type
    | C.Any_attr, C.Any_attr
    | C.String_param, C.String_param
    | C.Symbol_param, C.Symbol_param
    | C.Bool_param, C.Bool_param
    | C.Location_param, C.Location_param
    | C.Type_id_param, C.Type_id_param
    | C.Array_any, C.Array_any ->
        true
    | C.Eq x, C.Eq y -> Attr.equal x y
    | C.Base_type t1, C.Base_type t2 ->
        t1.dialect = t2.dialect && t1.name = t2.name
        && params_eq t1.params t2.params
    | C.Base_attr t1, C.Base_attr t2 ->
        t1.dialect = t2.dialect && t1.name = t2.name
        && params_eq t1.params t2.params
    | C.Int_param k1, C.Int_param k2 -> k1 = k2
    | C.Float_param k1, C.Float_param k2 -> k1 = k2
    | C.Enum_param e1, C.Enum_param e2 ->
        e1.dialect = e2.dialect && e1.enum = e2.enum
    | C.Array_of c1, C.Array_of c2
    | C.Not c1, C.Not c2
    | C.Variadic c1, C.Variadic c2
    | C.Optional c1, C.Optional c2 ->
        constraint_eq c1 c2
    | C.Array_exact l1, C.Array_exact l2
    | C.Any_of l1, C.Any_of l2
    | C.And l1, C.And l2 ->
        all l1 l2
    | C.Var v1, C.Var v2 ->
        v1.v_name = v2.v_name && constraint_eq v1.v_constraint v2.v_constraint
    | C.Native n1, C.Native n2 ->
        n1.name = n2.name && n1.snippets = n2.snippets
        && constraint_eq n1.base n2.base
    | C.Native_param p1, C.Native_param p2 ->
        p1.name = p2.name && p1.class_name = p2.class_name
    | _ -> false

  let slot_eq (s1 : Resolve.slot) (s2 : Resolve.slot) =
    s1.s_name = s2.s_name && constraint_eq s1.s_constraint s2.s_constraint

  let slots_eq l1 l2 = List.length l1 = List.length l2 && List.for_all2 slot_eq l1 l2

  let typedef_eq (t1 : Resolve.typedef) (t2 : Resolve.typedef) =
    t1.td_name = t2.td_name && t1.td_summary = t2.td_summary
    && t1.td_cpp = t2.td_cpp
    && slots_eq t1.td_params t2.td_params

  let region_eq (r1 : Resolve.region) (r2 : Resolve.region) =
    r1.reg_name = r2.reg_name
    && r1.reg_terminator = r2.reg_terminator
    && slots_eq r1.reg_args r2.reg_args

  let op_eq (o1 : Resolve.op) (o2 : Resolve.op) =
    o1.op_name = o2.op_name && o1.op_summary = o2.op_summary
    && List.length o1.op_vars = List.length o2.op_vars
    && List.for_all2
         (fun (v1 : C.var) (v2 : C.var) ->
           v1.v_name = v2.v_name
           && constraint_eq v1.v_constraint v2.v_constraint)
         o1.op_vars o2.op_vars
    && slots_eq o1.op_operands o2.op_operands
    && slots_eq o1.op_results o2.op_results
    && slots_eq o1.op_attributes o2.op_attributes
    && List.length o1.op_regions = List.length o2.op_regions
    && List.for_all2 region_eq o1.op_regions o2.op_regions
    && o1.op_successors = o2.op_successors
    && o1.op_format = o2.op_format
    && o1.op_cpp = o2.op_cpp

  let enum_eq (e1 : Ast.enum_def) (e2 : Ast.enum_def) =
    e1.e_name = e2.e_name && e1.e_cases = e2.e_cases

  let dialect_eq (d1 : Resolve.dialect) (d2 : Resolve.dialect) =
    let all f l1 l2 = List.length l1 = List.length l2 && List.for_all2 f l1 l2 in
    d1.dl_name = d2.dl_name
    && all typedef_eq d1.dl_types d2.dl_types
    && all typedef_eq d1.dl_attrs d2.dl_attrs
    && all op_eq d1.dl_ops d2.dl_ops
    && all enum_eq d1.dl_enums d2.dl_enums
end
