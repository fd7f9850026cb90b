(** Textual IR output.

    Prints the MLIR-like generic form for every operation:

    {v
    %0 = "cmath.norm"(%p) : (!cmath.complex<f32>) -> f32
    v}

    and, when the operation's definition carries a compiled declarative
    format (paper §4.7), the custom pretty form:

    {v
    %0 = cmath.norm %p : f32
    v}

    Printing never fails: if a custom format cannot be applied to a
    (possibly invalid) operation, the printer falls back to the generic
    form for that operation.

    {!add_op} is the one renderer: it appends to a [Buffer.t], with
    attributes and types rendered by {!Attr.add}/{!Attr.add_ty}. The
    [Format] and string entry points wrap it. *)

module Int_tbl = Hashtbl.Make (Int)

(* Printed numbers by id (value or block), assigned on first use, strictly
   in emission order. Ids come from one counter, so the ids a session
   prints are dense: the numbers live in pages of 1024 slots keyed by
   [id / 1024], and the page last used is cached. A name costs two reads
   rather than a hash lookup. A page is [Bytes] holding number + 1 as an
   int32 per slot (0: none yet): 4 KB, past the minor heap's largest
   block, so it is allocated straight into the major heap, where the GC
   neither copies nor scans it. A small print (a server request) touches
   a page or two. *)
module Numbering = struct
  let page_bits = 10
  let page_slots = 1 lsl page_bits

  type t = {
    pages : Bytes.t Int_tbl.t;
    mutable last_key : int;
    mutable last : Bytes.t;
    mutable next : int;
  }

  let create () =
    { pages = Int_tbl.create 16; last_key = -1; last = Bytes.empty; next = 0 }

  let number t id =
    let key = id lsr page_bits in
    let page =
      if key = t.last_key then t.last
      else begin
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
      end
    in
    let at = 4 * (id land (page_slots - 1)) in
    let n = Int32.to_int (Bytes.get_int32_le page at) - 1 in
    if n >= 0 then n
    else begin
      let n = t.next in
      t.next <- n + 1;
      Bytes.set_int32_le page at (Int32.of_int (n + 1));
      n
    end
end

type t = {
  ctx : Context.t;
  values : Numbering.t;
  blocks : Numbering.t;
  generic : bool;  (** Force generic form even when a format is registered. *)
}

let create ?(generic = false) ctx =
  { ctx; values = Numbering.create (); blocks = Numbering.create (); generic }

let value_number t (v : Graph.value) = Numbering.number t.values v.v_id
let block_number t (b : Graph.block) = Numbering.number t.blocks b.blk_id

let add_value t buf v =
  Buffer.add_char buf '%';
  Attr.add_int buf (value_number t v)

let add_block t buf b =
  Buffer.add_string buf "^bb";
  Attr.add_int buf (block_number t b)

let value_name t v = "%" ^ string_of_int (value_number t v)
let block_name t b = "^bb" ^ string_of_int (block_number t b)

(* [add t buf x i] for [i] from [first] to [n - 1], comma-separated. The
   item printers are top-level functions, so a list costs no closure. *)
let add_sep t buf x ~first n add =
  for i = first to n - 1 do
    if i > first then Buffer.add_string buf ", ";
    add t buf x i
  done

let operand t buf op i = add_value t buf (Graph.Op.operand op i)
let result t buf op i = add_value t buf (Graph.Op.result op i)
let operand_ty () buf op i =
  Attr.add_ty buf (Graph.Value.ty (Graph.Op.operand op i))

let result_ty () buf op i =
  Attr.add_ty buf (Graph.Value.ty (Graph.Op.result op i))

let block_arg t buf b i =
  let v = Graph.Block.arg b i in
  add_value t buf v;
  Buffer.add_string buf ": ";
  Attr.add_ty buf (Graph.Value.ty v)

exception Fallback
(* Raised when a custom format cannot be applied; caught to emit generic
   form instead. *)

let project_ty (op : Graph.op) (proj : Opfmt.ty_proj) : Attr.ty =
  let base =
    match proj.source with
    | `Operand i ->
        if i < Graph.Op.num_operands op then
          Graph.Value.ty (Graph.Op.operand op i)
        else raise Fallback
    | `Result i ->
        if i < Graph.Op.num_results op then
          Graph.Value.ty (Graph.Op.result op i)
        else raise Fallback
  in
  List.fold_left
    (fun ty idx ->
      match (ty : Attr.ty) with
      | Attr.Dynamic { params; _ } -> (
          match List.nth_opt params idx with
          | Some (Attr.Type ty') -> ty'
          | _ -> raise Fallback)
      | _ -> raise Fallback)
    base proj.path

(* Indentation is capped so that pathologically deep region nesting (the
   50k-level regression test) produces O(n) output instead of O(n²). *)
let max_indent = 64
let newline_indent = "\n" ^ String.make max_indent ' '

let add_newline buf level =
  Buffer.add_substring buf newline_indent 0 (1 + min level max_indent)

let add_custom t buf (op : Graph.op) (f : Opfmt.t) =
  Buffer.add_string buf op.op_name;
  List.iter
    (fun (item : Opfmt.item) ->
      match item with
      | Opfmt.Lit s ->
          (* Punctuation hugs the previous token; words get a space. *)
          if not (s = "," || s = ">" || s = ")") then Buffer.add_char buf ' ';
          Buffer.add_string buf s
      | Opfmt.Operand_ref i ->
          if i < Graph.Op.num_operands op then begin
            Buffer.add_char buf ' ';
            add_value t buf (Graph.Op.operand op i)
          end
          else raise Fallback
      | Opfmt.Operand_group start ->
          Buffer.add_char buf ' ';
          add_sep t buf op ~first:start (Graph.Op.num_operands op) operand
      | Opfmt.Attr_ref name -> (
          match Graph.Op.attr op name with
          | Some a ->
              Buffer.add_char buf ' ';
              Attr.add buf a
          | None -> raise Fallback)
      | Opfmt.Ty_directive { proj; _ } ->
          Buffer.add_char buf ' ';
          Attr.add_ty buf (project_ty op proj))
    f.items

(* Everything a generic op prints after its regions: the attribute
   dictionary and the function type. It contains no value names, so a
   region op defers it as a job and renders it after the region bodies. It
   is a function of the signature: the memo keeps it ({!Context.add_tail}). *)
let add_tail buf (op : Graph.op) =
  (match op.attrs with
  | [] -> ()
  | attrs ->
      Buffer.add_string buf " {";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf k;
          Buffer.add_string buf " = ";
          Attr.add buf v)
        attrs;
      Buffer.add_char buf '}');
  Buffer.add_string buf " : (";
  add_sep () buf op ~first:0 (Graph.Op.num_operands op) operand_ty;
  Buffer.add_string buf ") -> (";
  add_sep () buf op ~first:0 (Graph.Op.num_results op) result_ty;
  Buffer.add_char buf ')'

(* The printer drives an explicit job stack instead of recursing through
   regions, so nesting depth is bounded only by memory. Value and block
   names are assigned strictly at emission time, in the order a recursive
   printer would assign them. *)
type job =
  | J_text of string
  | J_newline of int  (** a line break, then indentation to the level *)
  | J_op of int * Graph.op  (** print one op at the given indent level *)
  | J_region of int * Graph.region
  | J_block_label of int * bool * Graph.block
  | J_tail of Graph.op_handle * Graph.op
      (** [")"] and the deferred {!add_tail} *)

(* The emitters below render one job each and push the jobs it leaves
   behind, in order, onto [stack]. *)
let push stack jobs_rev = stack := List.rev_append jobs_rev !stack

let emit_generic t buf stack level (h : Graph.op_handle) (op : Graph.op) =
  Buffer.add_string buf h.oh_quoted;
  Buffer.add_char buf '(';
  add_sep t buf op ~first:0 (Graph.Op.num_operands op) operand;
  Buffer.add_char buf ')';
  (match op.successors with
  | [] -> ()
  | succs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i b ->
          if i > 0 then Buffer.add_string buf ", ";
          add_block t buf b)
        succs;
      Buffer.add_char buf ']');
  match op.regions with
  | [] -> Context.add_tail t.ctx h op add_tail buf
  | regions ->
      Buffer.add_string buf " (";
      let jobs = ref [] in
      List.iteri
        (fun i r ->
          if i > 0 then jobs := J_text ", " :: !jobs;
          jobs := J_region (level, r) :: !jobs)
        regions;
      push stack (J_tail (h, op) :: !jobs)

let emit_op t buf stack level (op : Graph.op) =
  (* Results are named before the body so that custom formats see them. *)
  let nresults = Graph.Op.num_results op in
  if nresults > 0 then begin
    add_sep t buf op ~first:0 nresults result;
    Buffer.add_string buf " = "
  end;
  let h = Context.handle t.ctx op in
  match h.oh_def with
  | Some { od_format = Some f; _ } when not t.generic -> (
      (* Rendered in place; on Fallback the partial text is cut off again.
         Custom formats never nest regions, so this stays flat. *)
      let mark = Buffer.length buf in
      try add_custom t buf op f
      with Fallback ->
        Buffer.truncate buf mark;
        emit_generic t buf stack level h op)
  | _ -> emit_generic t buf stack level h op

let emit_region buf stack level (r : Graph.region) =
  let inner = level + 2 in
  Buffer.add_char buf '{';
  let nblocks = Graph.Region.num_blocks r in
  let jobs = ref [] in
  let i = ref 0 in
  Graph.Region.iter_blocks r ~f:(fun b ->
      (* The entry block's label is implicit when it has no arguments and
         is the only block, matching MLIR's convention. *)
      let needs_label = !i > 0 || Graph.Block.num_args b > 0 || nblocks > 1 in
      incr i;
      jobs := J_block_label (level, needs_label, b) :: !jobs;
      Graph.Block.iter_ops b ~f:(fun o ->
          jobs := J_op (inner, o) :: J_newline inner :: !jobs));
  push stack (J_text "}" :: J_newline level :: !jobs)

let emit_block_label t buf level needs_label (b : Graph.block) =
  if needs_label then begin
    add_newline buf level;
    add_block t buf b;
    let nargs = Graph.Block.num_args b in
    if nargs > 0 then begin
      Buffer.add_char buf '(';
      add_sep t buf b ~first:0 nargs block_arg;
      Buffer.add_char buf ')'
    end;
    Buffer.add_char buf ':'
  end

let rec run t buf stack =
  match !stack with
  | [] -> ()
  | job :: rest ->
      stack := rest;
      (match job with
      | J_text s -> Buffer.add_string buf s
      | J_newline lvl -> add_newline buf lvl
      | J_op (lvl, o) -> emit_op t buf stack lvl o
      | J_region (lvl, r) -> emit_region buf stack lvl r
      | J_block_label (lvl, needs, b) -> emit_block_label t buf lvl needs b
      | J_tail (h, o) ->
          Buffer.add_char buf ')';
          Context.add_tail t.ctx h o add_tail buf);
      run t buf stack

let add_op ?(level = 0) t buf op =
  let stack = ref [] in
  emit_op t buf stack level op;
  run t buf stack

let pp_op ?level t ppf op =
  let buf = Buffer.create 256 in
  add_op ?level t buf op;
  Format.pp_print_string ppf (Buffer.contents buf)

let op_to_string ?generic ctx op =
  let buf = Buffer.create 256 in
  add_op (create ?generic ctx) buf op;
  Buffer.contents buf

(** Print a list of top-level operations, one per line. *)
let ops_to_string ?generic ctx ops =
  let t = create ?generic ctx in
  let buf = Buffer.create 256 in
  List.iteri
    (fun i o ->
      if i > 0 then Buffer.add_char buf '\n';
      add_op t buf o)
    ops;
  Buffer.contents buf
