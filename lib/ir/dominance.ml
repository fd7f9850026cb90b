(** SSA dominance checking.

    The defining property of SSA (paper §2): every use of a value must be
    dominated by its definition. Within a block that is textual order;
    across blocks it is CFG dominance (computed per region from terminator
    successors, entry = first block); across regions a value defined in an
    enclosing region is visible everywhere inside (MLIR's SSACFG region
    visibility).

    Kept separate from {!Verifier} because the textual format deliberately
    allows forward references while parsing; dominance is checked on demand
    (e.g. [irdl-opt --pass-pipeline verify-dominance]). *)

open Irdl_support

(* ------------------------------------------------------------------ *)
(* Per-region dominator trees                                          *)
(* ------------------------------------------------------------------ *)

type region_info = {
  index_of : (int, int) Hashtbl.t;  (** block id -> dense index *)
  idom : int array;  (** immediate dominator indices; entry maps to itself *)
  reachable : bool array;
}

(** Cooper–Harvey–Kennedy iterative dominator computation. *)
let region_info (region : Graph.region) : region_info =
  let blocks = Array.of_list (Graph.Region.blocks region) in
  let n = Array.length blocks in
  let index_of = Hashtbl.create (max 4 n) in
  Array.iteri (fun i (b : Graph.block) -> Hashtbl.replace index_of b.blk_id i) blocks;
  let succs i =
    match Graph.Block.terminator blocks.(i) with
    | None -> []
    | Some term ->
        List.filter_map
          (fun (s : Graph.block) -> Hashtbl.find_opt index_of s.blk_id)
          term.Graph.successors
  in
  (* Predecessor lists. *)
  let preds = Array.make n [] in
  for i = 0 to n - 1 do
    List.iter (fun s -> preds.(s) <- i :: preds.(s)) (succs i)
  done;
  (* Reverse postorder from the entry block (index 0). *)
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      List.iter dfs (succs i);
      order := i :: !order
    end
  in
  if n > 0 then dfs 0;
  let rpo = Array.of_list !order in
  let rpo_number = Array.make n (-1) in
  Array.iteri (fun k i -> rpo_number.(i) <- k) rpo;
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_number.(!a) > rpo_number.(!b) do
        a := idom.(!a)
      done;
      while rpo_number.(!b) > rpo_number.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun i ->
        if i <> 0 then begin
          let new_idom = ref (-1) in
          List.iter
            (fun p ->
              if idom.(p) <> -1 then
                new_idom := if !new_idom = -1 then p else intersect p !new_idom)
            preds.(i);
          if !new_idom <> -1 && idom.(i) <> !new_idom then begin
            idom.(i) <- !new_idom;
            changed := true
          end
        end)
      rpo
  done;
  { index_of; idom; reachable = visited }

(** Does block index [a] dominate block index [b] (within one region)? *)
let dominates_index (info : region_info) a b =
  if (not info.reachable.(a)) || not info.reachable.(b) then
    (* Unreachable code: be permissive, as MLIR is. *)
    true
  else
    let rec up x = x = a || (x <> info.idom.(x) && up info.idom.(x)) in
    up b

(* ------------------------------------------------------------------ *)
(* Use/def positions                                                   *)
(* ------------------------------------------------------------------ *)

(** The chain of (region, block, position-in-block) from the scope root
    down to [op]. Positions are the block-local [op_order] indices, so each
    level costs O(1); the loop is iterative (no stack growth on deep
    nesting). *)
let ancestry (op : Graph.op) : (Graph.region * Graph.block * int) list =
  let rec up acc (op : Graph.op) =
    match op.Graph.op_parent with
    | None -> acc
    | Some blk -> (
        match blk.Graph.blk_parent with
        | None -> acc
        | Some region ->
            let acc = (region, blk, op.Graph.op_order) :: acc in
            (match region.Graph.reg_parent with
            | None -> acc
            | Some parent -> up acc parent))
  in
  up [] op

type t = {
  infos : (int, region_info) Hashtbl.t;  (** region id -> dominator info *)
}

let create () = { infos = Hashtbl.create 16 }

let info_for t (region : Graph.region) =
  match Hashtbl.find_opt t.infos region.Graph.reg_id with
  | Some info -> info
  | None ->
      let info = region_info region in
      Hashtbl.replace t.infos region.Graph.reg_id info;
      info

(** The definition point of a value: its region, block, and position in the
    block — the defining op's [op_order] index, or [min_int] for block
    arguments so they dominate every op of the block (orders can go
    negative under prepending). [None] for forward references and detached
    definitions. *)
let def_point (value : Graph.value) :
    (Graph.region * Graph.block * int) option =
  match value.Graph.v_def with
  | Graph.Forward_ref _ | Graph.Released -> None
  | Graph.Block_arg { block; _ } ->
      Option.map (fun r -> (r, block, min_int)) block.Graph.blk_parent
  | Graph.Op_result { op = def_op; _ } -> (
      match def_op.Graph.op_parent with
      | None -> None
      | Some blk -> (
          match blk.Graph.blk_parent with
          | None -> None
          | Some region -> Some (region, blk, def_op.Graph.op_order)))

(** Does [value] properly dominate the use in [user]?

    Following MLIR: hoist the use to its ancestor at the level of the
    definition's region — if the use is not nested inside that region the
    value is not visible at all; in the same block compare positions;
    across blocks use CFG dominance. *)
let value_dominates t (value : Graph.value) (user : Graph.op) : bool =
  match def_point value with
  | None -> false
  | Some (def_region, def_block, def_pos) -> (
      let use_chain = ancestry user in
      match
        List.find_opt
          (fun ((r : Graph.region), _, _) ->
            r.Graph.reg_id = def_region.Graph.reg_id)
          use_chain
      with
      | None -> false (* the use is not nested inside the def's region *)
      | Some (_, use_block, use_pos) ->
          if def_block.Graph.blk_id = use_block.Graph.blk_id then
            def_pos < use_pos
          else
            let info = info_for t def_region in
            let di = Hashtbl.find_opt info.index_of def_block.Graph.blk_id in
            let ui = Hashtbl.find_opt info.index_of use_block.Graph.blk_id in
            (match (di, ui) with
            | Some di, Some ui -> dominates_index info di ui
            | _ -> false))

(** Check SSA dominance for every use inside [scope]. *)
let verify (scope : Graph.op) : (unit, Diag.t) result =
  let t = create () in
  let result = ref (Ok ()) in
  (try
     Graph.Op.walk scope ~f:(fun user ->
         if user != scope then
           Graph.Op.iteri_operands user ~f:(fun i (v : Graph.value) ->
               if not (value_dominates t v user) then begin
                 result :=
                   Diag.errorf ~loc:user.Graph.op_loc
                     "operand %d of '%s' is not dominated by its definition"
                     i user.Graph.op_name;
                 raise Exit
               end))
   with Exit -> ());
  !result
