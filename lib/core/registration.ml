(** Dynamic dialect registration: resolved IRDL dialects into a live
    {!Irdl_ir.Context.t}.

    This is the paper's §3 payoff: "the compiler then instantiates all
    necessary data structures at runtime (without recompilation)". Every
    registered definition is a closure over the resolved constraints — the
    generated verifiers of Listing 2 — with no code generation involved.

    Variadic segmentation follows §4.6: with at most one variadic operand
    (or result) group the split is inferred from the arity; with several,
    the operation must carry an [operandSegmentSizes] ([resultSegmentSizes])
    array attribute. *)

open Irdl_support
open Irdl_ir
module C = Constraint_expr

let ( let* ) = Result.bind

(* ---------------------------------------------------------------- *)
(* Variadic slot assignment                                          *)
(* ---------------------------------------------------------------- *)

(** Split [values] across [slots], honouring variadic/optional slots.
    Returns the per-slot value groups. *)
let assign_slots ~what ~seg_attr ~(op : Graph.op) (slots : Resolve.slot list)
    (values : 'a list) : ('a list list, Diag.t) result =
  let n_slots = List.length slots in
  let n_values = List.length values in
  let variadics =
    List.filter (fun (s : Resolve.slot) -> C.is_variadic s.s_constraint) slots
  in
  let* sizes =
    match variadics with
    | [] ->
        if n_values = n_slots then Ok (List.map (fun _ -> 1) slots)
        else
          Diag.errorf ~loc:op.op_loc "'%s' expects %d %ss, got %d" op.op_name
            n_slots what n_values
    | [ v ] ->
        let group = n_values - (n_slots - 1) in
        if group < 0 then
          Diag.errorf ~loc:op.op_loc
            "'%s' expects at least %d %ss, got %d" op.op_name (n_slots - 1)
            what n_values
        else if C.is_optional v.s_constraint && group > 1 then
          Diag.errorf ~loc:op.op_loc
            "'%s': optional %s '%s' matched %d values" op.op_name what
            v.s_name group
        else
          Ok
            (List.map
               (fun (s : Resolve.slot) ->
                 if C.is_variadic s.s_constraint then group else 1)
               slots)
    | _ -> (
        (* Multiple variadic groups: segment sizes must be explicit. *)
        match Graph.Op.attr op seg_attr with
        | Some (Attr.Array entries) ->
            let* sizes =
              List.fold_left
                (fun acc (a : Attr.t) ->
                  let* acc = acc in
                  match a with
                  | Attr.Int { value; _ } -> Ok (Int64.to_int value :: acc)
                  | _ ->
                      Diag.errorf ~loc:op.op_loc
                        "'%s': %s must be an array of integers" op.op_name
                        seg_attr)
                (Ok []) entries
            in
            let sizes = List.rev sizes in
            if List.length sizes <> n_slots then
              Diag.errorf ~loc:op.op_loc
                "'%s': %s has %d entries but the operation defines %d %s \
                 groups"
                op.op_name seg_attr (List.length sizes) n_slots what
            else if List.fold_left ( + ) 0 sizes <> n_values then
              Diag.errorf ~loc:op.op_loc
                "'%s': %s sums to %d but there are %d %ss" op.op_name seg_attr
                (List.fold_left ( + ) 0 sizes)
                n_values what
            else begin
              let* () =
                List.fold_left2
                  (fun acc (s : Resolve.slot) size ->
                    let* () = acc in
                    if (not (C.is_variadic s.s_constraint)) && size <> 1 then
                      Diag.errorf ~loc:op.op_loc
                        "'%s': segment size of non-variadic %s '%s' must be \
                         1, got %d"
                        op.op_name what s.s_name size
                    else if C.is_optional s.s_constraint && size > 1 then
                      Diag.errorf ~loc:op.op_loc
                        "'%s': segment size of optional %s '%s' must be at \
                         most 1, got %d"
                        op.op_name what s.s_name size
                    else Ok ())
                  (Ok ()) slots sizes
              in
              Ok sizes
            end
        | Some _ ->
            Diag.errorf ~loc:op.op_loc "'%s': %s must be an array attribute"
              op.op_name seg_attr
        | None ->
            Diag.errorf ~loc:op.op_loc
              "'%s' has multiple variadic %s groups and needs a %s attribute"
              op.op_name what seg_attr)
  in
  (* Slice the value list according to the sizes. *)
  let rec slice values sizes acc =
    match sizes with
    | [] -> List.rev acc
    | size :: rest ->
        let rec take n vs taken =
          if n = 0 then (List.rev taken, vs)
          else
            match vs with
            | [] -> invalid_arg "assign_slots: size mismatch"
            | v :: tl -> take (n - 1) tl (v :: taken)
        in
        let group, remaining = take size values [] in
        slice remaining rest (group :: acc)
  in
  Ok (slice values sizes [])

(* ---------------------------------------------------------------- *)
(* Verifier generation                                              *)
(* ---------------------------------------------------------------- *)

let check_slot_group ~native ~env ~(op : Graph.op) ~what (s : Resolve.slot)
    (tys : Attr.ty list) =
  let c = C.strip_variadic s.s_constraint in
  List.fold_left
    (fun acc ty ->
      let* env = acc in
      match C.verify_ty ~native ~env c ty with
      | Ok env -> Ok env
      | Error reason ->
          Diag.errorf ~loc:op.op_loc "'%s': %s '%s': %s" op.op_name what
            s.s_name reason)
    (Ok env) tys

(* Takes the slot types directly: callers use [Graph.Op.operand_tys] /
   [result_tys], which read the operand arrays without materializing an
   intermediate value list on the hot verification path. *)
let verify_value_slots ~native ~env ~op ~what ~seg_attr slots tys =
  let* groups = assign_slots ~what ~seg_attr ~op slots tys in
  List.fold_left2
    (fun acc slot group ->
      let* env = acc in
      check_slot_group ~native ~env ~op ~what slot group)
    (Ok env) slots groups

let verify_attributes ~native ~env ~(op : Graph.op)
    (slots : Resolve.slot list) =
  List.fold_left
    (fun acc (s : Resolve.slot) ->
      let* env = acc in
      match Graph.Op.attr op s.s_name with
      | None ->
          if C.is_optional s.s_constraint then Ok env
          else
            Diag.errorf ~loc:op.op_loc "'%s' requires attribute '%s'"
              op.op_name s.s_name
      | Some a -> (
          match C.verify ~native ~env (C.strip_variadic s.s_constraint) a with
          | Ok env -> Ok env
          | Error reason ->
              Diag.errorf ~loc:op.op_loc "'%s': attribute '%s': %s" op.op_name
                s.s_name reason))
    (Ok env) slots

(* A region's block count and terminator: the region checks that read more
   than the op's signature. *)
let check_terminator ~(op : Graph.op) (rd : Resolve.region)
    (region : Graph.region) =
  match rd.reg_terminator with
  | None -> Ok ()
  | Some term_name -> (
      if Graph.Region.num_blocks region <> 1 then
        Diag.errorf ~loc:op.op_loc
          "'%s': region '%s' must consist of a single block" op.op_name
          rd.reg_name
      else
        match Graph.Region.entry region with
        | None -> assert false
        | Some entry -> (
            match Graph.Block.terminator entry with
            | Some last when last.op_name = term_name -> Ok ()
            | Some last ->
                Diag.errorf ~loc:op.op_loc
                  "'%s': region '%s' must end with '%s', found '%s'"
                  op.op_name rd.reg_name term_name last.op_name
            | None ->
                Diag.errorf ~loc:op.op_loc
                  "'%s': region '%s' must end with '%s' but is empty"
                  op.op_name rd.reg_name term_name))

let verify_regions ~native ~env ~(op : Graph.op) (rdefs : Resolve.region list)
    =
  if List.length op.regions <> List.length rdefs then
    Diag.errorf ~loc:op.op_loc "'%s' expects %d regions, got %d" op.op_name
      (List.length rdefs)
      (List.length op.regions)
  else
    List.fold_left2
      (fun acc (rd : Resolve.region) (region : Graph.region) ->
        let* env = acc in
        let* env =
          match Graph.Region.entry region with
          | None ->
              if rd.reg_args = [] && rd.reg_terminator = None then Ok env
              else
                Diag.errorf ~loc:op.op_loc
                  "'%s': region '%s' must not be empty" op.op_name rd.reg_name
          | Some entry ->
              verify_value_slots ~native ~env ~op ~what:"region argument"
                ~seg_attr:"regionArgSegmentSizes" rd.reg_args
                (List.map Graph.Value.ty (Graph.Block.args entry))
        in
        let* () = check_terminator ~op rd region in
        Ok env)
      (Ok env) rdefs op.regions

let verify_successors ~(op : Graph.op) (succs : string list option) =
  match succs with
  | None ->
      if op.successors = [] then Ok ()
      else
        Diag.errorf ~loc:op.op_loc
          "'%s' is not a terminator and cannot have successors" op.op_name
  | Some names ->
      if List.length op.successors = List.length names then Ok ()
      else
        Diag.errorf ~loc:op.op_loc "'%s' expects %d successors, got %d"
          op.op_name (List.length names)
          (List.length op.successors)

(* The first failing snippet decides; a passing run allocates nothing, as
   it runs on every memo hit. *)
let rec verify_cpp ~native ~(op : Graph.op) = function
  | [] -> Ok ()
  | snippet :: rest -> (
      match Native.check_op native snippet op with
      | Ok true -> verify_cpp ~native ~op rest
      | Ok false ->
          Diag.errorf ~loc:op.op_loc "'%s' violates native constraint %S"
            op.op_name snippet
      | Error snippet ->
          Diag.errorf ~loc:op.op_loc
            "no native hook registered for %S (strict mode)" snippet)

(** What the generated verifier checks beyond the op's signature, in its
    order: each region's block count and terminator, then the IRDL-C++ op
    hooks (which see the whole op). The verifier runs it in place of the
    full verifier when the signature already verified. *)
let make_op_verifier_rest ~native (rop : Resolve.op) =
  let rec terminators ~op rdefs regions =
    match (rdefs, regions) with
    | rd :: rdefs, region :: regions -> (
        match check_terminator ~op rd region with
        | Ok () -> terminators ~op rdefs regions
        | Error _ as e -> e)
    | _ -> Ok ()
  in
  if
    rop.op_cpp = []
    && List.for_all
         (fun (rd : Resolve.region) -> rd.reg_terminator = None)
         rop.op_regions
  then fun _ -> Ok ()
  else fun (op : Graph.op) ->
    match terminators ~op rop.op_regions op.regions with
    | Ok () -> verify_cpp ~native ~op rop.op_cpp
    | Error _ as e -> e

(** The generated operation verifier: the runtime analog of Listing 2's
    [MulOp::verify]. Registration stores its partial application to the
    resolved op; each check walks the resolved constraint trees with
    {!Constraint_expr.verify}, threading one environment of constraint
    variables through operands, results, attributes and region arguments. *)
let make_op_verifier ~native (rop : Resolve.op) (op : Graph.op) :
    (unit, Diag.t) result =
  let env = C.empty_env in
  let* env =
    verify_value_slots ~native ~env ~op ~what:"operand"
      ~seg_attr:"operandSegmentSizes" rop.op_operands (Graph.Op.operand_tys op)
  in
  let* env =
    verify_value_slots ~native ~env ~op ~what:"result"
      ~seg_attr:"resultSegmentSizes" rop.op_results (Graph.Op.result_tys op)
  in
  let* env = verify_attributes ~native ~env ~op rop.op_attributes in
  let* _env = verify_regions ~native ~env ~op rop.op_regions in
  let* () = verify_successors ~op rop.op_successors in
  verify_cpp ~native ~op rop.op_cpp

(** The generated type/attribute parameter verifier: arity, each
    parameter's constraint, then the IRDL-C++ hooks. *)
let make_params_verifier ~native ~what ~qual_name
    (slots : Resolve.slot list) (cpp : string list) (params : Attr.t list) :
    (unit, Diag.t) result =
  if List.length params <> List.length slots then
    Diag.errorf "%s '%s' expects %d parameters, got %d" what qual_name
      (List.length slots) (List.length params)
  else
    let* _env =
      List.fold_left2
        (fun acc (s : Resolve.slot) param ->
          let* env = acc in
          match C.verify ~native ~env s.s_constraint param with
          | Ok env -> Ok env
          | Error reason ->
              Diag.errorf "%s '%s': parameter '%s': %s" what qual_name
                s.s_name reason)
        (Ok C.empty_env) slots params
    in
    List.fold_left
      (fun acc snippet ->
        let* () = acc in
        match Native.check_def native snippet params with
        | Ok true -> Ok ()
        | Ok false ->
            Diag.errorf "%s '%s' violates native constraint %S" what qual_name
              snippet
        | Error snippet ->
            Diag.errorf "no native hook registered for %S (strict mode)"
              snippet)
      (Ok ()) cpp

(* ---------------------------------------------------------------- *)
(* Registration                                                      *)
(* ---------------------------------------------------------------- *)

(** Register a resolved dialect into [ctx], accumulating one error per
    definition that failed (duplicate registration, malformed declarative
    format) while all the others are registered. Compiles declarative
    formats eagerly so malformed specs fail at registration, not first
    use. *)
let register_collect ?(native = Native.default) (ctx : Context.t)
    (dl : Resolve.dialect) : Diag.t list =
  if Context.is_frozen ctx then
    (* One clean rejection up front instead of a per-definition error for
       every op/type/attr in the dialect. *)
    [
      Diag.error "cannot register dialect '%s': the context is frozen"
        dl.dl_name;
    ]
  else begin
  let errors = ref [] in
  (* Run one definition's registration; errors without a location get the
     definition's own. *)
  let guard ~loc f =
    match Diag.protect_any ~loc f with
    | Ok () -> ()
    | Error (d : Diag.t) ->
        let d =
          if Loc.is_unknown d.loc && not (Loc.is_unknown loc) then
            { d with loc }
          else d
        in
        errors := d :: !errors
  in
  let lookup_type_params ~dialect ~name =
    if dialect = dl.dl_name then
      List.find_opt (fun (t : Resolve.typedef) -> t.td_name = name) dl.dl_types
      |> Option.map (fun (t : Resolve.typedef) ->
             List.map (fun (s : Resolve.slot) -> s.s_name) t.td_params)
    else
      Context.lookup_type ctx ~dialect ~name
      |> Option.map (fun (_ : Context.type_def) -> [])
      (* Parameter names of foreign types are not recorded in the context;
         formats can only project through same-dialect types. *)
      |> fun o -> (match o with Some [] -> None | o -> o)
  in
  List.iter
    (fun (td : Resolve.typedef) ->
      guard ~loc:td.td_loc (fun () ->
          Context.register_type ctx
            {
              Context.td_dialect = dl.dl_name;
              td_name = td.td_name;
              td_summary = Option.value ~default:"" td.td_summary;
              td_num_params = List.length td.td_params;
              td_verify =
                (let qual_name = dl.dl_name ^ "." ^ td.td_name in
                 make_params_verifier ~native ~what:"type" ~qual_name
                   td.td_params td.td_cpp);
            }))
    dl.dl_types;
  List.iter
    (fun (ad : Resolve.typedef) ->
      guard ~loc:ad.td_loc (fun () ->
          Context.register_attr ctx
            {
              Context.ad_dialect = dl.dl_name;
              ad_name = ad.td_name;
              ad_summary = Option.value ~default:"" ad.td_summary;
              ad_num_params = List.length ad.td_params;
              ad_verify =
                (let qual_name = dl.dl_name ^ "." ^ ad.td_name in
                 make_params_verifier ~native ~what:"attribute" ~qual_name
                   ad.td_params ad.td_cpp);
            }))
    dl.dl_attrs;
  List.iter
    (fun (rop : Resolve.op) ->
      guard ~loc:rop.op_loc (fun () ->
          let od_format =
            match rop.op_format with
            | None -> None
            | Some _ -> (
                match Opformat.compile ~lookup_type_params dl.dl_name rop with
                | Ok f -> Some f
                | Error d -> raise (Diag.Error_exn d))
          in
          Context.register_op ctx
            {
              Graph.od_dialect = dl.dl_name;
              od_name = rop.op_name;
              od_summary = Option.value ~default:"" rop.op_summary;
              od_is_terminator = rop.op_successors <> None;
              od_num_regions = List.length rop.op_regions;
              od_verify = make_op_verifier ~native rop;
              od_verify_rest = make_op_verifier_rest ~native rop;
              od_format;
            }))
    dl.dl_ops;
  List.rev !errors
  end

(** Like {!register_collect}, reporting only the first error. Definitions
    after a failed one are still registered. *)
let register ?native (ctx : Context.t) (dl : Resolve.dialect) :
    (unit, Diag.t) result =
  match register_collect ?native ctx dl with
  | [] -> Ok ()
  | d :: _ -> Error d
