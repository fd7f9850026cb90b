(** The mutable SSA IR object graph: values, operations, blocks and regions.

    This mirrors MLIR's object model (section 2 of the paper): operations take
    SSA-value operands, produce result values, carry named attributes, may own
    nested regions of basic blocks, and terminators name successor blocks.
    Blocks carry arguments (phi nodes).

    Operations are extensible: [op_name] is a plain ["dialect.mnemonic"]
    string and all structural fields are generic, exactly the property IRDL
    relies on to register dialects at runtime without code generation.

    The storage layout follows MLIR's million-op design rather than a naive
    object graph:

    - Operations are nodes of an intrusive doubly-linked list per block
      ([op_prev]/[op_next] + [blk_first]/[blk_last]), so append, prepend,
      insert-before/after and removal are all O(1) with no list rebuilding.
      Blocks are likewise an intrusive list per region.
    - Operands, results and block arguments are [array]s with O(1) indexed
      access.
    - Every operand slot is a {!use} node threaded into an intrusive use
      chain hanging off the used value ([v_first_use]), maintained by every
      operand mutation. Replace-all-uses, has-uses and use iteration are
      proportional to the value's use count, never to the scope size.
    - Each op carries a block-local order index ([op_order]), assigned by
      midpoint insertion and renumbered (rarely) when a gap closes, so
      "does a come before b in this block" — the inner loop of dominance
      checking — is an integer compare instead of a list scan. *)

open Irdl_support

type value = {
  v_id : int;
  mutable v_ty : Attr.ty;
  mutable v_def : value_def;
  mutable v_first_use : use option;
      (** Head of the intrusive chain of operand slots using this value. *)
}

and value_def =
  | Op_result of { op : op; index : int }
  | Block_arg of { block : block; index : int }
  | Forward_ref of string
      (** A use seen before its definition while parsing; patched to a real
          definition when the defining operation is parsed, and an error if
          still unresolved at end of parse. *)
  | Released
      (** The defining operation was handed back by a streaming parse
          session and {!release}d: the value keeps its identity and type so
          later operations can still use (and type-check against) it, but
          it no longer retains the defining subtree, which lets the GC
          reclaim the operation. *)

and use = {
  u_owner : op;  (** The operation owning the operand slot. *)
  u_index : int;  (** The operand index within [u_owner]. *)
  mutable u_value : value;  (** The value currently occupying the slot. *)
  mutable u_prev : use option;
  mutable u_next : use option;
}

and op = {
  op_id : int;
  op_name : string;  (** Fully qualified, e.g. ["cmath.mul"]. *)
  mutable op_handle : op_handle;  (** see {!Context.handle} *)
  mutable op_operands : use array;
  mutable op_results : value array;
  mutable attrs : (string * Attr.t) list;
  mutable regions : region list;
  mutable successors : block list;
  mutable op_parent : block option;
  mutable op_prev : op option;
  mutable op_next : op option;
  mutable op_order : int;
      (** Block-local ordering index; strictly increasing along the block's
          op list. Maintained by the insertion primitives. *)
  op_loc : Loc.t;
}

and block = {
  blk_id : int;
  mutable blk_args : value array;
  mutable blk_first : op option;
  mutable blk_last : op option;
  mutable blk_num_ops : int;
  mutable blk_parent : region option;
  mutable blk_prev : block option;
  mutable blk_next : block option;
}

and region = {
  reg_id : int;
  mutable reg_first : block option;
  mutable reg_last : block option;
  mutable reg_num_blocks : int;
  mutable reg_parent : op option;
}

and op_handle = {
  oh_key : int;  (** the resolving shard's key at the time *)
  oh_def : op_def option;
  oh_quoted : string;
  oh_slot : int;
}

and op_def = {
  od_dialect : string;
  od_name : string;
  od_summary : string;
  od_is_terminator : bool;
  od_num_regions : int;
  od_verify : op -> (unit, Diag.t) result;
  od_verify_rest : op -> (unit, Diag.t) result;
  od_format : Opfmt.t option;
}

let unresolved = { oh_key = 0; oh_def = None; oh_quoted = ""; oh_slot = -1 }

(* Atomic so ID allocation stays race-free once construction moves onto
   OCaml 5 domains (the multicore verification service); uncontended
   fetch-and-add costs the same as the old ref bump. *)
let id_counter = Atomic.make 0
let next_id () = Atomic.fetch_and_add id_counter 1 + 1

(* Gap left between consecutive order indices so insertions in the middle
   usually find a free midpoint; when a gap closes the whole block is
   renumbered (amortized O(1) per insertion, as in MLIR). *)
let order_stride = 32

(* ------------------------------------------------------------------ *)
(* Use-chain maintenance                                               *)
(* ------------------------------------------------------------------ *)

(* Push [u] onto the front of its value's use chain. [u] must be unlinked. *)
let link_use (u : use) =
  let v = u.u_value in
  u.u_prev <- None;
  u.u_next <- v.v_first_use;
  (match v.v_first_use with Some h -> h.u_prev <- Some u | None -> ());
  v.v_first_use <- Some u

(* Remove [u] from its value's use chain. O(1) via the doubly links. *)
let unlink_use (u : use) =
  (match u.u_prev with
  | Some p -> p.u_next <- u.u_next
  | None -> u.u_value.v_first_use <- u.u_next);
  (match u.u_next with Some n -> n.u_prev <- u.u_prev | None -> ());
  u.u_prev <- None;
  u.u_next <- None

let make_use owner index v =
  let u = { u_owner = owner; u_index = index; u_value = v; u_prev = None; u_next = None } in
  link_use u;
  u

module Value = struct
  type t = value

  let ty v = v.v_ty
  let id v = v.v_id
  let equal a b = a.v_id = b.v_id

  (* Used by the IR parser for uses seen before their definition. *)
  let forward_ref name =
    { v_id = next_id (); v_ty = Attr.none; v_def = Forward_ref name;
      v_first_use = None }

  let defining_op v =
    match v.v_def with
    | Op_result { op; _ } -> Some op
    | Block_arg _ | Forward_ref _ | Released -> None

  let owner_block v =
    match v.v_def with
    | Op_result { op; _ } -> op.op_parent
    | Block_arg { block; _ } -> Some block
    | Forward_ref _ | Released -> None

  let has_uses v = v.v_first_use <> None

  let num_uses v =
    let rec go n = function None -> n | Some u -> go (n + 1) u.u_next in
    go 0 v.v_first_use

  let iter_uses v ~f =
    (* The callback may relink the current use; grab the successor first. *)
    let rec go = function
      | None -> ()
      | Some u ->
          let next = u.u_next in
          f u;
          go next
    in
    go v.v_first_use

  (** The (owner op, operand index) pairs currently using [v]. Most-recently
      linked first; order carries no semantic meaning. *)
  let uses v =
    let rec go acc = function
      | None -> List.rev acc
      | Some u -> go ((u.u_owner, u.u_index) :: acc) u.u_next
    in
    go [] v.v_first_use

  (** Re-home every use of [from] onto [to_]: O(number of uses of [from]),
      independent of any enclosing scope. The core RAUW primitive. *)
  let replace_all_uses ~from ~to_ =
    if from != to_ then begin
      let rec go = function
        | None -> ()
        | Some u ->
            let next = u.u_next in
            u.u_value <- to_;
            link_use u;
            go next
      in
      let head = from.v_first_use in
      from.v_first_use <- None;
      go head
    end

  let pp ppf v = Fmt.pf ppf "%%%d : %a" v.v_id Attr.pp_ty v.v_ty
end

module Op = struct
  type t = op

  let create ?(operands = []) ?(result_tys = []) ?(attrs = []) ?(regions = [])
      ?(successors = []) ?(loc = Loc.unknown) name =
    let op =
      {
        op_id = next_id ();
        op_name = name;
        op_handle = unresolved;
        op_operands = [||];
        op_results = [||];
        attrs = List.map (fun (k, v) -> (k, Attr.intern v)) attrs;
        regions;
        successors;
        op_parent = None;
        op_prev = None;
        op_next = None;
        op_order = 0;
        op_loc = loc;
      }
    in
    op.op_operands <-
      Array.of_list (List.mapi (fun i v -> make_use op i v) operands);
    (* Interning at every SSA-value creation point keeps the uniquing
       invariant even for types assembled outside {!Attr}'s constructors. *)
    op.op_results <-
      Array.of_list
        (List.mapi
           (fun index ty ->
             { v_id = next_id ();
               v_ty = Attr.intern_ty ty;
               v_def = Op_result { op; index };
               v_first_use = None })
           result_tys);
    List.iter
      (fun r ->
        if r.reg_parent <> None then
          invalid_arg "Op.create: region already attached to an operation";
        r.reg_parent <- Some op)
      regions;
    op

  (* Deserialization fast path: operands and result types arrive as arrays
     and are used as given — the caller guarantees result types are already
     canonical and attribute values interned, as the bytecode reader's
     table pass does. Skips [create]'s defensive interning and its
     list-to-array copies; a measurable share of module load time at
     10^6 ops. *)
  let create_prebuilt ~(operands : value array) ~(result_tys : Attr.ty array)
      ~attrs ~regions ~successors ~loc ~handle name =
    let op =
      {
        op_id = next_id ();
        op_name = name;
        op_handle = handle;
        op_operands = [||];
        op_results = [||];
        attrs;
        regions;
        successors;
        op_parent = None;
        op_prev = None;
        op_next = None;
        op_order = 0;
        op_loc = loc;
      }
    in
    (* One-element arrays are literals: [Array.make] is a C call. *)
    let n_operands = Array.length operands in
    if n_operands = 1 then op.op_operands <- [| make_use op 0 operands.(0) |]
    else if n_operands > 1 then begin
      let uses = Array.make n_operands (make_use op 0 operands.(0)) in
      for i = 1 to n_operands - 1 do
        uses.(i) <- make_use op i operands.(i)
      done;
      op.op_operands <- uses
    end;
    let n_results = Array.length result_tys in
    if n_results = 1 then
      op.op_results <-
        [| { v_id = next_id (); v_ty = result_tys.(0);
             v_def = Op_result { op; index = 0 }; v_first_use = None } |]
    else if n_results > 1 then begin
      let res =
        Array.make n_results
          {
            v_id = next_id ();
            v_ty = result_tys.(0);
            v_def = Op_result { op; index = 0 };
            v_first_use = None;
          }
      in
      for index = 1 to n_results - 1 do
        res.(index) <-
          {
            v_id = next_id ();
            v_ty = result_tys.(index);
            v_def = Op_result { op; index };
            v_first_use = None;
          }
      done;
      op.op_results <- res
    end;
    List.iter
      (fun r ->
        if r.reg_parent <> None then
          invalid_arg "Op.create: region already attached to an operation";
        r.reg_parent <- Some op)
      regions;
    op

  let name op = op.op_name

  let dialect op =
    match String.index_opt op.op_name '.' with
    | Some i -> String.sub op.op_name 0 i
    | None -> ""

  let mnemonic op =
    match String.index_opt op.op_name '.' with
    | Some i -> String.sub op.op_name (i + 1) (String.length op.op_name - i - 1)
    | None -> op.op_name

  let operand op i = op.op_operands.(i).u_value
  let result op i = op.op_results.(i)
  let num_operands op = Array.length op.op_operands
  let num_results op = Array.length op.op_results

  let operands op =
    Array.fold_right (fun u acc -> u.u_value :: acc) op.op_operands []

  let results op = Array.to_list op.op_results

  let operand_tys op =
    Array.fold_right (fun u acc -> u.u_value.v_ty :: acc) op.op_operands []

  let result_tys op =
    Array.fold_right (fun v acc -> v.v_ty :: acc) op.op_results []

  let iter_operands op ~f = Array.iter (fun u -> f u.u_value) op.op_operands
  let iteri_operands op ~f = Array.iteri (fun i u -> f i u.u_value) op.op_operands
  let iter_results op ~f = Array.iter f op.op_results

  let attr op key = List.assoc_opt key op.attrs

  let set_attr op key value =
    op.attrs <- (key, Attr.intern value) :: List.remove_assoc key op.attrs

  let remove_attr op key = op.attrs <- List.remove_assoc key op.attrs

  let set_operand op i v =
    let u = op.op_operands.(i) in
    if u.u_value != v then begin
      unlink_use u;
      u.u_value <- v;
      link_use u
    end

  let set_operands op operands =
    Array.iter unlink_use op.op_operands;
    op.op_operands <-
      Array.of_list (List.mapi (fun i v -> make_use op i v) operands)

  (* Drop this op's operand slots from their use chains. Part of {!erase};
     the op keeps no operands afterwards. *)
  let drop_operand_uses op =
    Array.iter unlink_use op.op_operands;
    op.op_operands <- [||]

  let parent_op op =
    match op.op_parent with
    | None -> None
    | Some blk -> ( match blk.blk_parent with None -> None | Some r -> r.reg_parent)

  let prev_op op = op.op_prev
  let next_op op = op.op_next

  (** Does [a] come strictly before [b] in their (shared) block? O(1): an
      order-index compare. *)
  let is_before_in_block a b =
    (match (a.op_parent, b.op_parent) with
    | Some ba, Some bb when ba == bb -> ()
    | _ -> invalid_arg "Op.is_before_in_block: ops not in the same block");
    a.op_order < b.op_order

  (** Pre-order walk over [op] and every operation nested in its regions.
      Iterative (explicit worklist), so arbitrarily deep region nesting
      cannot overflow the call stack. *)
  let walk op ~f =
    let stack = ref [ op ] in
    let running = ref true in
    while !running do
      match !stack with
      | [] -> running := false
      | o :: rest ->
          stack := rest;
          f o;
          (* Collect direct nested ops in reverse program order, then push:
             the first nested op ends on top, preserving pre-order. *)
          let rev_children = ref [] in
          List.iter
            (fun region ->
              let b = ref region.reg_first in
              let bgo = ref true in
              while !bgo do
                match !b with
                | None -> bgo := false
                | Some blk ->
                    let o = ref blk.blk_first in
                    let ogo = ref true in
                    while !ogo do
                      match !o with
                      | None -> ogo := false
                      | Some child ->
                          rev_children := child :: !rev_children;
                          o := child.op_next
                    done;
                    b := blk.blk_next
              done)
            o.regions;
          List.iter (fun c -> stack := c :: !stack) !rev_children
    done

  (** [is_ancestor ~ancestor op]: is [op] nested (strictly or not) inside
      [ancestor]'s regions? *)
  let is_ancestor ~ancestor op =
    let rec up o = if o.op_id = ancestor.op_id then true
      else match parent_op o with None -> false | Some p -> up p
    in
    up op
end

module Block = struct
  type t = block

  let create ?(arg_tys = []) () =
    let block =
      { blk_id = next_id (); blk_args = [||]; blk_first = None; blk_last = None;
        blk_num_ops = 0; blk_parent = None; blk_prev = None; blk_next = None }
    in
    block.blk_args <-
      Array.of_list
        (List.mapi
           (fun index ty ->
             { v_id = next_id ();
               v_ty = Attr.intern_ty ty;
               v_def = Block_arg { block; index };
               v_first_use = None })
           arg_tys);
    block

  let args b = Array.to_list b.blk_args
  let arg b i = b.blk_args.(i)
  let num_args b = Array.length b.blk_args

  let ops b =
    let rec go acc = function
      | None -> List.rev acc
      | Some o -> go (o :: acc) o.op_next
    in
    go [] b.blk_first

  let iter_ops b ~f =
    (* Robust against [f] removing the current op: advance first. *)
    let cur = ref b.blk_first in
    let running = ref true in
    while !running do
      match !cur with
      | None -> running := false
      | Some o ->
          cur := o.op_next;
          f o
    done

  let num_ops b = b.blk_num_ops
  let first_op b = b.blk_first
  let last_op b = b.blk_last

  let add_arg b ty =
    let index = Array.length b.blk_args in
    let v =
      { v_id = next_id ();
        v_ty = Attr.intern_ty ty;
        v_def = Block_arg { block = b; index };
        v_first_use = None }
    in
    b.blk_args <- Array.append b.blk_args [| v |];
    v

  (* Rewrite every order index to index * stride. Called when a midpoint
     insertion finds no gap; O(n) but amortized away by the stride. *)
  let renumber b =
    let i = ref 0 in
    let cur = ref b.blk_first in
    let running = ref true in
    while !running do
      match !cur with
      | None -> running := false
      | Some o ->
          o.op_order <- !i * order_stride;
          incr i;
          cur := o.op_next
    done

  (* Assign an order to an already-linked [op] from its neighbours. *)
  let assign_order b op =
    match (op.op_prev, op.op_next) with
    | None, None -> op.op_order <- 0
    | Some p, None -> op.op_order <- p.op_order + order_stride
    | None, Some n -> op.op_order <- n.op_order - order_stride
    | Some p, Some n ->
        if n.op_order - p.op_order >= 2 then
          op.op_order <- p.op_order + ((n.op_order - p.op_order) / 2)
        else renumber b

  let append b op =
    if op.op_parent <> None then
      invalid_arg "Block.append: operation already has a parent block";
    op.op_parent <- Some b;
    op.op_prev <- b.blk_last;
    op.op_next <- None;
    (match b.blk_last with
    | Some l ->
        l.op_next <- Some op;
        op.op_order <- l.op_order + order_stride
    | None ->
        b.blk_first <- Some op;
        op.op_order <- 0);
    b.blk_last <- Some op;
    b.blk_num_ops <- b.blk_num_ops + 1

  let prepend b op =
    if op.op_parent <> None then
      invalid_arg "Block.prepend: operation already has a parent block";
    op.op_parent <- Some b;
    op.op_prev <- None;
    op.op_next <- b.blk_first;
    (match b.blk_first with
    | Some f ->
        f.op_prev <- Some op;
        op.op_order <- f.op_order - order_stride
    | None ->
        b.blk_last <- Some op;
        op.op_order <- 0);
    b.blk_first <- Some op;
    b.blk_num_ops <- b.blk_num_ops + 1

  let insert_before b ~anchor op =
    if op.op_parent <> None then
      invalid_arg "Block.insert_before: operation already has a parent block";
    (match anchor.op_parent with
    | Some b' when b' == b -> ()
    | _ -> invalid_arg "Block.insert_before: anchor not in block");
    op.op_parent <- Some b;
    op.op_prev <- anchor.op_prev;
    op.op_next <- Some anchor;
    (match anchor.op_prev with
    | Some p -> p.op_next <- Some op
    | None -> b.blk_first <- Some op);
    anchor.op_prev <- Some op;
    b.blk_num_ops <- b.blk_num_ops + 1;
    assign_order b op

  let insert_after b ~anchor op =
    if op.op_parent <> None then
      invalid_arg "Block.insert_after: operation already has a parent block";
    (match anchor.op_parent with
    | Some b' when b' == b -> ()
    | _ -> invalid_arg "Block.insert_after: anchor not in block");
    op.op_parent <- Some b;
    op.op_prev <- Some anchor;
    op.op_next <- anchor.op_next;
    (match anchor.op_next with
    | Some n -> n.op_prev <- Some op
    | None -> b.blk_last <- Some op);
    anchor.op_next <- Some op;
    b.blk_num_ops <- b.blk_num_ops + 1;
    assign_order b op

  let remove b op =
    match op.op_parent with
    | Some b' when b' == b ->
        (match op.op_prev with
        | Some p -> p.op_next <- op.op_next
        | None -> b.blk_first <- op.op_next);
        (match op.op_next with
        | Some n -> n.op_prev <- op.op_prev
        | None -> b.blk_last <- op.op_prev);
        op.op_prev <- None;
        op.op_next <- None;
        op.op_parent <- None;
        b.blk_num_ops <- b.blk_num_ops - 1
    | _ -> op.op_parent <- None

  let terminator b = b.blk_last
end

module Region = struct
  type t = region

  let add_block r b =
    if b.blk_parent <> None then
      invalid_arg "Region.add_block: block already attached to a region";
    b.blk_parent <- Some r;
    b.blk_prev <- r.reg_last;
    b.blk_next <- None;
    (match r.reg_last with
    | Some l -> l.blk_next <- Some b
    | None -> r.reg_first <- Some b);
    r.reg_last <- Some b;
    r.reg_num_blocks <- r.reg_num_blocks + 1

  let create ?(blocks = []) () =
    let r =
      { reg_id = next_id (); reg_first = None; reg_last = None;
        reg_num_blocks = 0; reg_parent = None }
    in
    List.iter
      (fun b ->
        if b.blk_parent <> None then
          invalid_arg "Region.create: block already attached to a region";
        add_block r b)
      blocks;
    r

  let entry r = r.reg_first

  let blocks r =
    let rec go acc = function
      | None -> List.rev acc
      | Some b -> go (b :: acc) b.blk_next
    in
    go [] r.reg_first

  let iter_blocks r ~f =
    let cur = ref r.reg_first in
    let running = ref true in
    while !running do
      match !cur with
      | None -> running := false
      | Some b ->
          cur := b.blk_next;
          f b
    done

  let num_blocks r = r.reg_num_blocks
end

(** Detach [op] from its parent block (if any). The op keeps its operands,
    results and use links; use {!erase} when the op is going away for good. *)
let detach op =
  match op.op_parent with None -> () | Some b -> Block.remove b op

(** Remove [op] from its block and unlink every operand slot of [op] — and
    of every operation nested inside it — from the use chains, so values it
    consumed no longer count it as a user. The erasure primitive for DCE,
    CSE and pattern replacement; callers must have rewired (or checked) uses
    of [op]'s own results first. *)
let erase op =
  detach op;
  Op.walk op ~f:Op.drop_operand_uses

(** Release [op] after a streaming consumer is done with it: detach it,
    unlink every operand slot of its subtree from the use chains (so values
    defined earlier no longer retain it as a user), and mark every value the
    subtree defines — results and block arguments, at every nesting level —
    as {!Released}. Released values keep their identity and type, so later
    operations can still take them as operands, but they no longer point
    back at the defining subtree: once the caller drops its own reference,
    the whole operation tree is garbage. *)
let release_value (v : value) = v.v_def <- Released

let release_op o =
  Op.drop_operand_uses o;
  Array.iter release_value o.op_results

(* A region-less op, the common case in a streamed module, is released
   without the walk's worklist. *)
let release op =
  detach op;
  match op.regions with
  | [] -> release_op op
  | _ ->
      Op.walk op ~f:(fun o ->
          release_op o;
          List.iter
            (fun r ->
              Region.iter_blocks r ~f:(fun b ->
                  Array.iter release_value b.blk_args))
            o.regions)

(** Replace every use of [from] by [to_] in operations nested inside [scope]
    (inclusive). With the intrusive use chains this touches only [from]'s
    actual users — O(uses × nesting depth) for the scope filter — instead of
    scanning the scope. Unscoped callers should prefer
    {!Value.replace_all_uses}. *)
let replace_uses_in scope ~from ~to_ =
  if from != to_ then
    Value.iter_uses from ~f:(fun u ->
        if Op.is_ancestor ~ancestor:scope u.u_owner then begin
          unlink_use u;
          u.u_value <- to_;
          link_use u
        end)

(** [has_uses_in scope v]: does any operation nested in [scope] use [v]?
    Walks [v]'s use chain, not the scope. *)
let has_uses_in scope v =
  let rec go = function
    | None -> false
    | Some u -> Op.is_ancestor ~ancestor:scope u.u_owner || go u.u_next
  in
  go v.v_first_use

(* ------------------------------------------------------------------ *)
(* Structural invariant checking (debug / test harness)                *)
(* ------------------------------------------------------------------ *)

(** Check every structural invariant of the intrusive representation over
    [root]'s subtree: parent pointers, doubly-linked list integrity and
    counts, strictly increasing order indices, result/argument back-pointers,
    and exact agreement between operand slots and use chains. O(n) in the
    subtree plus total use count; meant for tests and debug builds, not hot
    paths. *)
let check_invariants (root : op) : (unit, string) result =
  let exception Bad of string in
  let fail fmt = Fmt.kstr (fun s -> raise (Bad s)) fmt in
  (* Physical membership test; [o = Some x] would allocate a fresh option
     cell, so destructure instead. *)
  let opt_is x = function Some y -> y == x | None -> false in
  let check_value_chain what (v : value) =
    (* Every node agrees with its neighbours and with its owner's slot. *)
    let seen = ref 0 in
    let rec go prev = function
      | None -> ()
      | Some u ->
          incr seen;
          if !seen > 10_000_000 then
            fail "%s %%%d: use chain too long (cycle?)" what v.v_id;
          if u.u_value != v then
            fail "%s %%%d: chained use points at a different value" what v.v_id;
          (match (prev, u.u_prev) with
          | None, None -> ()
          | Some p, Some p' when p == p' -> ()
          | _ -> fail "%s %%%d: use chain prev link broken" what v.v_id);
          let slots = u.u_owner.op_operands in
          if u.u_index >= Array.length slots || not (slots.(u.u_index) == u)
          then
            fail "%s %%%d: use chain entry not backed by operand slot %d of '%s'"
              what v.v_id u.u_index u.u_owner.op_name;
          go (Some u) u.u_next
    in
    go None v.v_first_use
  in
  let check_op (o : op) =
    Array.iteri
      (fun i u ->
        if u.u_owner != o then
          fail "'%s': operand slot %d owned by a different op" o.op_name i;
        if u.u_index <> i then
          fail "'%s': operand slot %d carries index %d" o.op_name i u.u_index;
        (* Local chain membership: the slot's links must be mutual. *)
        (match u.u_prev with
        | Some p ->
            if not (opt_is u p.u_next) then
              fail "'%s': operand slot %d has a broken prev link" o.op_name i
        | None ->
            if not (opt_is u u.u_value.v_first_use) then
              fail "'%s': operand slot %d is not the chain head of its value"
                o.op_name i);
        match u.u_next with
        | Some n ->
            if not (opt_is u n.u_prev) then
              fail "'%s': operand slot %d has a broken next link" o.op_name i
        | None -> ())
      o.op_operands;
    Array.iteri
      (fun i (v : value) ->
        (match v.v_def with
        | Op_result { op = owner; index } when owner == o && index = i -> ()
        | _ -> fail "'%s': result %d back-pointer broken" o.op_name i);
        check_value_chain "result" v)
      o.op_results;
    List.iter
      (fun (r : region) ->
        (match r.reg_parent with
        | Some p when p == o -> ()
        | _ -> fail "'%s': owned region lacks parent pointer" o.op_name);
        let count = ref 0 in
        let prev_blk = ref None in
        Region.iter_blocks r ~f:(fun b ->
            incr count;
            (match b.blk_parent with
            | Some r' when r' == r -> ()
            | _ -> fail "block in region of '%s' has wrong parent" o.op_name);
            (match (!prev_blk, b.blk_prev) with
            | None, None -> ()
            | Some p, Some p' when p == p' -> ()
            | _ -> fail "region of '%s': block prev link broken" o.op_name);
            prev_blk := Some b;
            Array.iteri
              (fun i (v : value) ->
                (match v.v_def with
                | Block_arg { block; index } when block == b && index = i -> ()
                | _ -> fail "block arg %d back-pointer broken" i);
                check_value_chain "block arg" v)
              b.blk_args;
            let n = ref 0 in
            let last_order = ref min_int in
            let prev_op = ref None in
            Block.iter_ops b ~f:(fun child ->
                incr n;
                (match child.op_parent with
                | Some b' when b' == b -> ()
                | _ -> fail "'%s' has wrong parent block" child.op_name);
                (match (!prev_op, child.op_prev) with
                | None, None -> ()
                | Some p, Some p' when p == p' -> ()
                | _ -> fail "'%s': op prev link broken" child.op_name);
                if child.op_order <= !last_order then
                  fail "'%s': order index not increasing" child.op_name;
                last_order := child.op_order;
                prev_op := Some child);
            (match (b.blk_last, !prev_op) with
            | None, None -> ()
            | Some l, Some l' when l == l' -> ()
            | _ -> fail "region of '%s': blk_last out of sync" o.op_name);
            if !n <> b.blk_num_ops then
              fail "block of '%s': op count %d but blk_num_ops %d" o.op_name !n
                b.blk_num_ops);
        (match (r.reg_last, !prev_blk) with
        | None, None -> ()
        | Some l, Some l' when l == l' -> ()
        | _ -> fail "region of '%s': reg_last out of sync" o.op_name);
        if !count <> r.reg_num_blocks then
          fail "region of '%s': block count %d but reg_num_blocks %d" o.op_name
            !count r.reg_num_blocks)
      o.regions
  in
  try
    Op.walk root ~f:check_op;
    Ok ()
  with Bad msg -> Error msg
