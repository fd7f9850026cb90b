(** Tests for the IR object graph. *)

open Irdl_ir
open Util

let create_op () =
  let op =
    Graph.Op.create ~result_tys:[ Attr.f32; Attr.i32 ] "test.op"
  in
  Alcotest.(check int) "results" 2 (Graph.Op.num_results op);
  Alcotest.(check int) "operands" 0 (Graph.Op.num_operands op);
  Alcotest.(check string) "dialect" "test" (Graph.Op.dialect op);
  Alcotest.(check string) "mnemonic" "op" (Graph.Op.mnemonic op);
  let r0 = Graph.Op.result op 0 in
  Alcotest.(check bool) "result ty" true
    (Attr.equal_ty Attr.f32 (Graph.Value.ty r0));
  match r0.v_def with
  | Graph.Op_result { op = owner; index } ->
      Alcotest.(check bool) "owner" true (owner == op);
      Alcotest.(check int) "index" 0 index
  | _ -> Alcotest.fail "expected Op_result"

let attrs_api () =
  let op = Graph.Op.create "test.op" in
  Alcotest.(check bool) "absent" true (Graph.Op.attr op "x" = None);
  Graph.Op.set_attr op "x" (Attr.int 1L);
  Alcotest.(check bool) "present" true (Graph.Op.attr op "x" <> None);
  Graph.Op.set_attr op "x" (Attr.int 2L);
  Alcotest.(check bool) "replaced" true
    (Graph.Op.attr op "x" = Some (Attr.int 2L));
  Alcotest.(check int) "no duplicate keys" 1 (List.length op.Graph.attrs);
  Graph.Op.remove_attr op "x";
  Alcotest.(check bool) "removed" true (Graph.Op.attr op "x" = None)

let block_ops_order () =
  let blk = Graph.Block.create () in
  let a = Graph.Op.create "t.a" and b = Graph.Op.create "t.b" in
  let c = Graph.Op.create "t.c" in
  Graph.Block.append blk a;
  Graph.Block.append blk c;
  Graph.Block.insert_before blk ~anchor:c b;
  Alcotest.(check (list string)) "order" [ "t.a"; "t.b"; "t.c" ]
    (List.map Graph.Op.name (Graph.Block.ops blk));
  (match Graph.Block.terminator blk with
  | Some t -> Alcotest.(check string) "terminator" "t.c" (Graph.Op.name t)
  | None -> Alcotest.fail "expected terminator");
  Graph.Block.remove blk b;
  Alcotest.(check (list string)) "after remove" [ "t.a"; "t.c" ]
    (List.map Graph.Op.name (Graph.Block.ops blk));
  Alcotest.(check bool) "detached" true (b.Graph.op_parent = None)

let double_attach_rejected () =
  let blk = Graph.Block.create () in
  let blk2 = Graph.Block.create () in
  let a = Graph.Op.create "t.a" in
  Graph.Block.append blk a;
  Alcotest.(check bool) "raises" true
    (try
       Graph.Block.append blk2 a;
       false
     with Invalid_argument _ -> true)

let block_args () =
  let blk = Graph.Block.create ~arg_tys:[ Attr.i32 ] () in
  Alcotest.(check int) "one arg" 1 (List.length (Graph.Block.args blk));
  let v = Graph.Block.add_arg blk Attr.f32 in
  Alcotest.(check int) "two args" 2 (List.length (Graph.Block.args blk));
  match v.v_def with
  | Graph.Block_arg { index; _ } -> Alcotest.(check int) "index" 1 index
  | _ -> Alcotest.fail "expected Block_arg"

let region_structure () =
  let b1 = Graph.Block.create () and b2 = Graph.Block.create () in
  let r = Graph.Region.create ~blocks:[ b1 ] () in
  Graph.Region.add_block r b2;
  Alcotest.(check int) "blocks" 2 (Graph.Region.num_blocks r);
  (match Graph.Region.entry r with
  | Some e -> Alcotest.(check bool) "entry" true (e == b1)
  | None -> Alcotest.fail "expected entry");
  let op = Graph.Op.create ~regions:[ r ] "t.wrap" in
  match r.Graph.reg_parent with
  | Some p -> Alcotest.(check bool) "region parent" true (p == op)
  | None -> Alcotest.fail "expected parent"

let walk_nested () =
  let inner = Graph.Op.create "t.inner" in
  let blk = Graph.Block.create () in
  Graph.Block.append blk inner;
  let region = Graph.Region.create ~blocks:[ blk ] () in
  let outer = Graph.Op.create ~regions:[ region ] "t.outer" in
  let seen = ref [] in
  Graph.Op.walk outer ~f:(fun o -> seen := Graph.Op.name o :: !seen);
  Alcotest.(check (list string)) "preorder" [ "t.outer"; "t.inner" ]
    (List.rev !seen)

let parent_chain () =
  let inner = Graph.Op.create "t.inner" in
  let blk = Graph.Block.create () in
  Graph.Block.append blk inner;
  let region = Graph.Region.create ~blocks:[ blk ] () in
  let outer = Graph.Op.create ~regions:[ region ] "t.outer" in
  (match Graph.Op.parent_op inner with
  | Some p -> Alcotest.(check string) "parent" "t.outer" (Graph.Op.name p)
  | None -> Alcotest.fail "expected parent");
  Alcotest.(check bool) "ancestor" true
    (Graph.Op.is_ancestor ~ancestor:outer inner);
  Alcotest.(check bool) "self ancestor" true
    (Graph.Op.is_ancestor ~ancestor:inner inner);
  Alcotest.(check bool) "not ancestor" false
    (Graph.Op.is_ancestor ~ancestor:inner outer)

let replace_uses () =
  let def1 = Graph.Op.create ~result_tys:[ Attr.i32 ] "t.def1" in
  let def2 = Graph.Op.create ~result_tys:[ Attr.i32 ] "t.def2" in
  let v1 = Graph.Op.result def1 0 and v2 = Graph.Op.result def2 0 in
  let user = Graph.Op.create ~operands:[ v1; v1 ] "t.use" in
  let blk = Graph.Block.create () in
  List.iter (Graph.Block.append blk) [ def1; def2; user ];
  let region = Graph.Region.create ~blocks:[ blk ] () in
  let scope = Graph.Op.create ~regions:[ region ] "t.scope" in
  Alcotest.(check bool) "v1 used" true (Graph.has_uses_in scope v1);
  Graph.replace_uses_in scope ~from:v1 ~to_:v2;
  Alcotest.(check bool) "v1 unused" false (Graph.has_uses_in scope v1);
  Alcotest.(check bool) "v2 used" true (Graph.has_uses_in scope v2);
  Alcotest.(check bool) "both operands" true
    (List.for_all (Graph.Value.equal v2) (Graph.Op.operands user))

let value_defining_op () =
  let def = Graph.Op.create ~result_tys:[ Attr.i32 ] "t.def" in
  let v = Graph.Op.result def 0 in
  (match Graph.Value.defining_op v with
  | Some o -> Alcotest.(check string) "def op" "t.def" (Graph.Op.name o)
  | None -> Alcotest.fail "expected defining op");
  let blk = Graph.Block.create ~arg_tys:[ Attr.i32 ] () in
  let arg = List.hd (Graph.Block.args blk) in
  Alcotest.(check bool) "block arg has no def op" true
    (Graph.Value.defining_op arg = None)

let unique_ids () =
  let a = Graph.Op.create "t.a" and b = Graph.Op.create "t.b" in
  Alcotest.(check bool) "distinct" true (a.Graph.op_id <> b.Graph.op_id)

let detach_op () =
  let blk = Graph.Block.create () in
  let op = Graph.Op.create "t.a" in
  Graph.Block.append blk op;
  Graph.detach op;
  Alcotest.(check int) "block empty" 0 (List.length (Graph.Block.ops blk));
  (* detaching twice is a no-op *)
  Graph.detach op

let use_chain_tracking () =
  let def = Graph.Op.create ~result_tys:[ Attr.i32 ] "t.def" in
  let other = Graph.Op.create ~result_tys:[ Attr.i32 ] "t.other" in
  let v = Graph.Op.result def 0 and w = Graph.Op.result other 0 in
  Alcotest.(check bool) "fresh unused" false (Graph.Value.has_uses v);
  let u1 = Graph.Op.create ~operands:[ v; v ] "t.u1" in
  let u2 = Graph.Op.create ~operands:[ v ] "t.u2" in
  Alcotest.(check int) "three uses" 3 (Graph.Value.num_uses v);
  Alcotest.(check bool) "all owners recorded" true
    (List.for_all
       (fun (o, _) -> o == u1 || o == u2)
       (Graph.Value.uses v));
  Graph.Op.set_operand u2 0 w;
  Alcotest.(check int) "two uses after set_operand" 2 (Graph.Value.num_uses v);
  Alcotest.(check int) "w picked one up" 1 (Graph.Value.num_uses w);
  Graph.Op.set_operands u1 [ w ];
  Alcotest.(check bool) "v unused" false (Graph.Value.has_uses v);
  Alcotest.(check int) "w has both" 2 (Graph.Value.num_uses w)

let replace_all_uses () =
  let def1 = Graph.Op.create ~result_tys:[ Attr.i32 ] "t.def1" in
  let def2 = Graph.Op.create ~result_tys:[ Attr.i32 ] "t.def2" in
  let v1 = Graph.Op.result def1 0 and v2 = Graph.Op.result def2 0 in
  let users =
    List.init 3 (fun _ -> Graph.Op.create ~operands:[ v1; v1 ] "t.use")
  in
  Alcotest.(check int) "six uses" 6 (Graph.Value.num_uses v1);
  Graph.Value.replace_all_uses ~from:v1 ~to_:v2;
  Alcotest.(check bool) "v1 dropped" false (Graph.Value.has_uses v1);
  Alcotest.(check int) "v2 adopted" 6 (Graph.Value.num_uses v2);
  List.iter
    (fun u ->
      Alcotest.(check bool) "operands rewired" true
        (List.for_all (Graph.Value.equal v2) (Graph.Op.operands u)))
    users;
  (* replacing a value by itself is a no-op *)
  Graph.Value.replace_all_uses ~from:v2 ~to_:v2;
  Alcotest.(check int) "self-replace keeps uses" 6 (Graph.Value.num_uses v2)

let erase_drops_uses () =
  let def = Graph.Op.create ~result_tys:[ Attr.i32 ] "t.def" in
  let v = Graph.Op.result def 0 in
  (* A user nested one region deep, so erase must recurse. *)
  let inner_user = Graph.Op.create ~operands:[ v ] "t.inner" in
  let blk = Graph.Block.create () in
  Graph.Block.append blk inner_user;
  let wrap =
    Graph.Op.create
      ~regions:[ Graph.Region.create ~blocks:[ blk ] () ]
      ~operands:[ v ] "t.wrap"
  in
  let top = Graph.Block.create () in
  Graph.Block.append top def;
  Graph.Block.append top wrap;
  Alcotest.(check int) "two uses" 2 (Graph.Value.num_uses v);
  Graph.erase wrap;
  Alcotest.(check bool) "v unused after erase" false (Graph.Value.has_uses v);
  Alcotest.(check int) "block shrunk" 1 (Graph.Block.num_ops top);
  (* detach, by contrast, keeps the use links *)
  let user = Graph.Op.create ~operands:[ v ] "t.user" in
  Graph.Block.append top user;
  Graph.detach user;
  Alcotest.(check bool) "detach keeps uses" true (Graph.Value.has_uses v)

let insert_after_and_order () =
  let blk = Graph.Block.create () in
  let a = Graph.Op.create "t.a" and b = Graph.Op.create "t.b" in
  let c = Graph.Op.create "t.c" in
  Graph.Block.append blk a;
  Graph.Block.append blk c;
  Graph.Block.insert_after blk ~anchor:a b;
  Alcotest.(check (list string)) "order" [ "t.a"; "t.b"; "t.c" ]
    (List.map Graph.Op.name (Graph.Block.ops blk));
  Alcotest.(check bool) "a before b" true (Graph.Op.is_before_in_block a b);
  Alcotest.(check bool) "c not before b" false
    (Graph.Op.is_before_in_block c b);
  Alcotest.(check int) "num_ops" 3 (Graph.Block.num_ops blk);
  (match Graph.Block.first_op blk with
  | Some f -> Alcotest.(check string) "first" "t.a" (Graph.Op.name f)
  | None -> Alcotest.fail "expected first op")

let order_renumbering () =
  (* Repeated insertion at the same point exhausts midpoint gaps and forces
     block renumbering; ordering must survive. *)
  let blk = Graph.Block.create () in
  let first = Graph.Op.create "t.first" and last = Graph.Op.create "t.last" in
  Graph.Block.append blk first;
  Graph.Block.append blk last;
  for i = 1 to 200 do
    Graph.Block.insert_before blk ~anchor:last
      (Graph.Op.create (Printf.sprintf "t.n%d" i))
  done;
  Alcotest.(check int) "count" 202 (Graph.Block.num_ops blk);
  let names = List.map Graph.Op.name (Graph.Block.ops blk) in
  Alcotest.(check string) "first stays" "t.first" (List.hd names);
  Alcotest.(check string) "last stays" "t.last"
    (List.nth names (List.length names - 1));
  (* Orders strictly increasing along the block. *)
  let prev = ref min_int in
  Graph.Block.iter_ops blk ~f:(fun o ->
      Alcotest.(check bool) "strictly increasing" true (o.Graph.op_order > !prev);
      prev := o.Graph.op_order)

let invariants_hold () =
  let def = Graph.Op.create ~result_tys:[ Attr.i32 ] "t.def" in
  let user = Graph.Op.create ~operands:[ Graph.Op.result def 0 ] "t.use" in
  let blk = Graph.Block.create ~arg_tys:[ Attr.f32 ] () in
  Graph.Block.append blk def;
  Graph.Block.append blk user;
  let func =
    Graph.Op.create ~regions:[ Graph.Region.create ~blocks:[ blk ] () ] "t.func"
  in
  (match Graph.check_invariants func with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invariants violated: %s" m);
  (* Corrupt a use chain head and expect the checker to notice. *)
  (Graph.Op.result def 0).Graph.v_first_use <- None;
  match Graph.check_invariants func with
  | Ok () -> Alcotest.fail "corruption not detected"
  | Error _ -> ()

let deep_nesting_stack_safe () =
  (* ~50k nested regions: walk, invariant checking, verification and
     printing must all stay iterative (no stack overflow). *)
  let depth = 50_000 in
  let op = ref (Graph.Op.create "t.leaf") in
  for _ = 1 to depth do
    let blk = Graph.Block.create () in
    Graph.Block.append blk !op;
    op := Graph.Op.create ~regions:[ Graph.Region.create ~blocks:[ blk ] () ] "t.nest"
  done;
  let root = !op in
  let count = ref 0 in
  Graph.Op.walk root ~f:(fun _ -> incr count);
  Alcotest.(check int) "walk count" (depth + 1) !count;
  (match Graph.check_invariants root with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invariants: %s" m);
  let ctx = Context.create () in
  (match Verifier.verify ctx root with
  | Ok () -> ()
  | Error d ->
      Alcotest.failf "verify: %s" (Irdl_support.Diag.to_string d));
  let printed = Printer.op_to_string ctx root in
  Alcotest.(check bool) "printed" true (String.length printed > depth)

(* Four domains build ops, values, blocks and regions through every
   constructor that takes ids, past several of their per-domain id blocks
   and across one op whose results need more than a block: every id of
   every node is distinct, and none is 0. *)
let atomic_ids_across_domains () =
  let rounds = 2_000 in
  let gen () =
    let ids = ref [] in
    let add id = ids := id :: !ids in
    let value (v : Graph.value) = add v.v_id in
    let op (o : Graph.op) =
      add o.op_id;
      Array.iter value o.op_results
    in
    let block (b : Graph.block) =
      add b.blk_id;
      Array.iter value b.blk_args
    in
    let prebuilt n =
      Graph.Op.create_prebuilt ~operands:[||]
        ~result_tys:(Array.make n Attr.i32) ~attrs:[] ~regions:[]
        ~successors:[] ~loc:Irdl_support.Loc.unknown
        ~entry:Graph.no_sig "t.p"
    in
    let tys n = List.init n (fun _ -> Attr.i32) in
    op (prebuilt 1500);
    for i = 1 to rounds do
      add (Graph.next_id ());
      op (prebuilt (i mod 4));
      op (Graph.Op.create ~result_tys:(tys (i mod 3)) "t.c");
      block (Graph.Block.create ~arg_tys:(tys (i mod 3)) ());
      add (Graph.Region.create ()).reg_id;
      value (Graph.Value.forward_ref "x")
    done;
    !ids
  in
  let domains = List.init 4 (fun _ -> Domain.spawn gen) in
  let ids = List.concat_map Domain.join domains in
  let tbl = Hashtbl.create (List.length ids) in
  List.iter (fun id -> Hashtbl.replace tbl id ()) ids;
  Alcotest.(check int) "all distinct" (List.length ids) (Hashtbl.length tbl);
  Alcotest.(check bool) "none is 0" false (Hashtbl.mem tbl 0)

let suite =
  [
    tc "op creation wires results" create_op;
    tc "attribute get/set/remove" attrs_api;
    tc "block op order and insertion" block_ops_order;
    tc "double attachment rejected" double_attach_rejected;
    tc "block arguments" block_args;
    tc "region structure" region_structure;
    tc "walk visits nested ops preorder" walk_nested;
    tc "parent chain and ancestry" parent_chain;
    tc "replace_uses_in rewrites operands" replace_uses;
    tc "value defining op" value_defining_op;
    tc "ids are unique" unique_ids;
    tc "detach" detach_op;
    tc "use chains track operand mutation" use_chain_tracking;
    tc "replace_all_uses is exhaustive" replace_all_uses;
    tc "erase drops nested operand uses" erase_drops_uses;
    tc "insert_after and O(1) ordering" insert_after_and_order;
    tc "order survives renumbering" order_renumbering;
    tc "invariant checker accepts and detects" invariants_hold;
    tc "50k nested regions stay stack-safe" deep_nesting_stack_safe;
    tc "atomic ids across domains" atomic_ids_across_domains;
  ]
