(** The verification driver.

    Verifies an operation tree against a {!Context.t}: structural SSA
    invariants (dominance-free structural checks, terminator placement,
    successor sanity), registered per-op verifiers (generated from IRDL
    constraints), and registered type/attribute parameter verifiers for every
    type mentioned in the IR. *)

open Irdl_support

let ( let* ) = Result.bind

(* Types and attributes are verified only on a signature-memo miss
   ({!Context.memoized}), so they are walked in full, without a cache of
   their own. Leaf nodes verify vacuously. *)
let rec verify_ty ctx (ty : Attr.ty) =
  match ty with
  | Attr.Dynamic { dialect; name; params } -> (
      let* () = verify_params ctx params in
      match Context.lookup_type ctx ~dialect ~name with
      | Some td ->
          if List.length params <> td.td_num_params then
            Diag.errorf "type '!%s.%s' expects %d parameters but has %d"
              dialect name td.td_num_params (List.length params)
          else td.td_verify params
      | None ->
          if Context.allow_unregistered ctx then Ok ()
          else Diag.errorf "unregistered type '!%s.%s'" dialect name)
  | Attr.Function { inputs; outputs } ->
      let* () = verify_tys ctx inputs in
      verify_tys ctx outputs
  | Attr.Tuple tys -> verify_tys ctx tys
  | _ -> Ok ()

and verify_tys ctx = function
  | [] -> Ok ()
  | ty :: rest -> (
      match verify_ty ctx ty with
      | Ok () -> verify_tys ctx rest
      | Error _ as e -> e)

and verify_attr ctx (a : Attr.t) =
  match a with
  | Attr.Type ty -> verify_ty ctx ty
  | Attr.Int { ty; _ } | Attr.Float_attr { ty; _ } -> verify_ty ctx ty
  | Attr.Array xs -> verify_params ctx xs
  | Attr.Dict kvs -> verify_named ctx kvs
  | Attr.Dyn_attr { dialect; name; params } -> (
      let* () = verify_params ctx params in
      match Context.lookup_attr ctx ~dialect ~name with
      | Some ad ->
          if List.length params <> ad.ad_num_params then
            Diag.errorf "attribute '#%s.%s' expects %d parameters but has %d"
              dialect name ad.ad_num_params (List.length params)
          else ad.ad_verify params
      | None ->
          if Context.allow_unregistered ctx then Ok ()
          else Diag.errorf "unregistered attribute '#%s.%s'" dialect name)
  | _ -> Ok ()

and verify_params ctx = function
  | [] -> Ok ()
  | a :: rest -> (
      match verify_attr ctx a with
      | Ok () -> verify_params ctx rest
      | Error _ as e -> e)

and verify_named ctx = function
  | [] -> Ok ()
  | (_, a) :: rest -> (
      match verify_attr ctx a with
      | Ok () -> verify_named ctx rest
      | Error _ as e -> e)

let is_terminator_def (def : Context.op_def option) (op : Graph.op) =
  match def with
  | Some od -> od.od_is_terminator
  | None -> op.successors <> []

let is_terminator ctx (op : Graph.op) =
  is_terminator_def (Context.handle ctx op).oh_def op

let is_last_in blk (op : Graph.op) =
  match Graph.Block.terminator blk with
  | Some last -> last.op_id = op.op_id
  | None -> false

let rec all_in_region (blk : Graph.block) = function
  | [] -> true
  | (s : Graph.block) :: rest ->
      (match (s.blk_parent, blk.blk_parent) with
      | Some a, Some b -> a == b
      | None, None -> true
      | _ -> false)
      && all_in_region blk rest

(* Structural checks that hold for every operation, registered or not.
   [def] is the op's resolved definition. A detached op can only fail on
   successors, so it costs one test. *)
let verify_structure def (op : Graph.op) =
  match op.op_parent with
  | None -> (
      match op.successors with
      | [] -> Ok ()
      | _ ->
          Diag.errorf ~loc:op.op_loc
            "'%s': successors on a detached operation" op.op_name)
  | Some blk ->
      if op.successors <> [] && not (is_last_in blk op) then
        (* Successors may only appear on block terminators. *)
        Diag.errorf ~loc:op.op_loc
          "'%s' has successors but is not the last operation in its block"
          op.op_name
      else if is_terminator_def def op && not (is_last_in blk op) then
        Diag.errorf ~loc:op.op_loc
          "terminator '%s' must be the last operation in its block"
          op.op_name
      else if all_in_region blk op.successors then Ok ()
      else
        (* Successor block must belong to the same region as the op's
           block. *)
        Diag.errorf ~loc:op.op_loc
          "'%s': successor blocks must be in the same region" op.op_name

(* Attach the op's location to diagnostics that lack one (e.g. from
   type/attribute parameter verifiers, which do not know where the type was
   used). *)
let with_op_loc (op : Graph.op) = function
  | Ok () -> Ok ()
  | Error (d : Diag.t) when Loc.is_unknown d.loc ->
      Error { d with loc = op.op_loc }
  | Error _ as e -> e

let rec verify_operand_tys ctx (a : Graph.use array) i =
  if i = Array.length a then Ok ()
  else
    match verify_ty ctx a.(i).u_value.v_ty with
    | Ok () -> verify_operand_tys ctx a (i + 1)
    | Error _ as e -> e

let rec verify_value_tys ctx (a : Graph.value array) i =
  if i = Array.length a then Ok ()
  else
    match verify_ty ctx a.(i).v_ty with
    | Ok () -> verify_value_tys ctx a (i + 1)
    | Error _ as e -> e

(* Walks the operands, results and attributes in place: no per-op lists. *)
let verify_op_full ctx def (op : Graph.op) =
  match verify_structure def op with
  | Error _ as e -> e
  | Ok () -> (
      match verify_operand_tys ctx op.op_operands 0 with
      | Error _ as e -> e
      | Ok () -> (
          match verify_value_tys ctx op.op_results 0 with
          | Error _ as e -> e
          | Ok () -> (
              match verify_named ctx op.attrs with
              | Error _ as e -> e
              | Ok () -> (
                  match def with
                  | Some (od : Context.op_def) -> od.od_verify op
                  | None ->
                      if Context.allow_unregistered ctx then Ok ()
                      else
                        Diag.errorf ~loc:op.op_loc
                          "unregistered operation '%s'" op.op_name))))

(* An op whose signature already verified Ok re-runs only the checks that
   read more than the signature, which come in the full path's order:
   structure first, then the definition's region terminators and native
   hooks. So the first failing check is the one the full path would report,
   and only Ok verdicts are recorded, so every diagnostic comes from the
   same code either way. *)
let verify_hit def op =
  match (verify_structure def op, def) with
  | Ok (), Some (od : Context.op_def) -> od.od_verify_rest op
  | r, _ -> r

let verify_op ctx (op : Graph.op) =
  with_op_loc op
  @@ Context.memoized ctx op ~hit:verify_hit ~full:verify_op_full

(** Verify [op] and everything nested inside it. Stops at the first failure. *)
let verify ctx (op : Graph.op) =
  let result = ref (Ok ()) in
  (try
     Graph.Op.walk op ~f:(fun o ->
         match verify_op ctx o with
         | Ok () -> ()
         | Error d ->
             result := Error d;
             raise Exit)
   with Exit -> ());
  !result

(* Stable order for multi-error output: by location (file, then start and
   end offsets), ties broken structurally so sorting is deterministic
   whatever order the walk produced. Used with [List.sort_uniq], it also
   drops repeated identical diagnostics from shared sub-terms. *)
let diag_order (a : Diag.t) (b : Diag.t) =
  let pos (d : Diag.t) =
    (d.loc.start_pos.file, d.loc.start_pos.offset, d.loc.end_pos.offset)
  in
  match compare (pos a) (pos b) with 0 -> compare a b | c -> c

(** Collect every verification failure instead of stopping at the first.
    The result is sorted by location and de-duplicated, so multi-error
    output is diffable. *)
let verify_all ctx (op : Graph.op) =
  Failpoints.hit "verify";
  match op.regions with
  | [] -> ( match verify_op ctx op with Ok () -> [] | Error d -> [ d ])
  | _ ->
      let diags = ref [] in
      Graph.Op.walk op ~f:(fun o ->
          match verify_op ctx o with
          | Ok () -> ()
          | Error d -> diags := d :: !diags);
      List.sort_uniq diag_order !diags

(** Verify a whole parsed module (a list of top-level operations), stopping
    at the first failure. This is the hook the pass manager's
    [--verify-each] instrumentation runs between passes. *)
let verify_ops ctx ops =
  List.fold_left
    (fun acc op -> match acc with Error _ -> acc | Ok () -> verify ctx op)
    (Ok ()) ops

(** Put already-collected diagnostics into the stable, de-duplicated
    {!diag_order}. A streaming driver concatenates per-op {!verify_all}
    results and merges once at end-of-stream; by construction the result
    is exactly what {!verify_ops_all} would have produced. *)
let merge_diags diags = List.sort_uniq diag_order diags

(** Collect every verification failure across a whole parsed module, in the
    same stable, de-duplicated order as {!verify_all}. *)
let verify_ops_all ctx ops = merge_diags (List.concat_map (verify_all ctx) ops)
