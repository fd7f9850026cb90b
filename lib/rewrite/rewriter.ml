(** The IR mutation API handed to rewrite patterns.

    All mutations are scoped to a root operation (typically a function or
    module). Use-def updates ride the values' intrusive use chains —
    replacement and dead-detection touch only actual users, never the whole
    scope. The rewriter records whether anything changed so the greedy
    driver can detect fixpoints. *)

open Irdl_ir

type t = {
  scope : Graph.op;  (** root of the IR being rewritten *)
  ctx : Context.t;
  mutable changed : bool;
  mutable num_replacements : int;
}

let create ctx scope = { scope; ctx; changed = false; num_replacements = 0 }

let mark_changed t =
  t.changed <- true;
  t.num_replacements <- t.num_replacements + 1

(** Create an operation inserted immediately before [anchor]. *)
let insert_before t ~anchor ?operands ?result_tys ?attrs ?regions ?successors
    name =
  let op = Graph.Op.create ?operands ?result_tys ?attrs ?regions ?successors name in
  (match anchor.Graph.op_parent with
  | Some blk -> Graph.Block.insert_before blk ~anchor op
  | None -> invalid_arg "Rewriter.insert_before: anchor is detached");
  t.changed <- true;
  op

(** Replace every use of [op]'s results with [values] and erase [op].
    [values] must match the result count. *)
let replace_op t (op : Graph.op) ~with_:(values : Graph.value list) =
  if List.length values <> Graph.Op.num_results op then
    invalid_arg "Rewriter.replace_op: result count mismatch";
  List.iteri
    (fun i to_ ->
      Graph.Value.replace_all_uses ~from:(Graph.Op.result op i) ~to_)
    values;
  Graph.erase op;
  mark_changed t

(** Erase an operation whose results are unused. *)
let erase_op t (op : Graph.op) =
  if Array.exists Graph.Value.has_uses op.Graph.op_results then
    invalid_arg "Rewriter.erase_op: results still in use";
  Graph.erase op;
  mark_changed t

(** Create a replacement op before [op], wire its results in place of
    [op]'s, and erase [op]. Returns the new operation. *)
let replace_op_with_new t (op : Graph.op) ?operands ?attrs ~result_tys name =
  let fresh = insert_before t ~anchor:op ?operands ?attrs ~result_tys name in
  replace_op t op ~with_:(Graph.Op.results fresh);
  fresh

(** Erase operations whose results are all unused and that have no side
    observable effect in our model (no regions, no successors, not a
    terminator). One pass; call repeatedly for cascades. *)
let dce_pass t =
  let erased = ref 0 in
  let candidates = ref [] in
  Graph.Op.walk t.scope ~f:(fun o ->
      if o != t.scope then candidates := o :: !candidates);
  List.iter
    (fun (o : Graph.op) ->
      if
        o.op_parent <> None
        && Graph.Op.num_results o > 0
        && o.regions = []
        && (not (Verifier.is_terminator t.ctx o))
        && not (Array.exists Graph.Value.has_uses o.op_results)
      then begin
        Graph.erase o;
        incr erased;
        t.changed <- true
      end)
    !candidates;
  !erased

(** Run {!dce_pass} to fixpoint; returns the number of erased operations. *)
let dce t =
  let total = ref 0 in
  let rec go () =
    let n = dce_pass t in
    total := !total + n;
    if n > 0 then go ()
  in
  go ();
  !total

(** {!dce} reported as unified pass statistics. *)
let dce_stats t = Irdl_support.Stats.v [ ("erased", dce t) ]
