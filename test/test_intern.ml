(** Tests for the hash-consing (uniquing) layer: smart constructors return
    canonical nodes, so structurally equal attributes and types are
    physically equal, interning is idempotent, and [hash] is consistent
    with [equal]. *)

open Irdl_ir
open Util

(* ---------------- unit invariants ---------------- *)

let phys_eq_constructed () =
  (* Two independent builds of the same type/attr share one node. *)
  let t1 = Attr.dynamic ~dialect:"cmath" ~name:"complex" [ Attr.typ Attr.f32 ] in
  let t2 = Attr.dynamic ~dialect:"cmath" ~name:"complex" [ Attr.typ Attr.f32 ] in
  Alcotest.(check bool) "dynamic types shared" true (t1 == t2);
  let a1 = Attr.array [ Attr.int 1L; Attr.string "x" ] in
  let a2 = Attr.array [ Attr.int 1L; Attr.string "x" ] in
  Alcotest.(check bool) "array attrs shared" true (a1 == a2);
  let f1 = Attr.function_ty ~inputs:[ Attr.i32 ] ~outputs:[ Attr.f32 ] in
  let f2 = Attr.function_ty ~inputs:[ Attr.i32 ] ~outputs:[ Attr.f32 ] in
  Alcotest.(check bool) "function types shared" true (f1 == f2)

let phys_eq_parser_vs_builder () =
  (* The IR parser and the programmatic API intern into the same tables. *)
  let ctx = cmath_ctx () in
  let parsed =
    check_ok "parse type" (Parser.parse_type_string ctx "!cmath.complex<f32>")
  in
  let built =
    Attr.dynamic ~dialect:"cmath" ~name:"complex" [ Attr.typ Attr.f32 ]
  in
  Alcotest.(check bool) "parser == builder" true (parsed == built);
  let parsed_attr =
    check_ok "parse attr"
      (Parser.parse_attr_string ctx "{a = 1 : i64, b = \"s\"}")
  in
  let built_attr =
    Attr.dict [ ("b", Attr.string "s"); ("a", Attr.int 1L) ]
  in
  Alcotest.(check bool) "dict parser == builder (any key order)" true
    (parsed_attr == built_attr)

let dict_canonical_order () =
  let d1 = Attr.dict [ ("a", Attr.int 1L); ("b", Attr.int 2L) ] in
  let d2 = Attr.dict [ ("b", Attr.int 2L); ("a", Attr.int 1L) ] in
  Alcotest.(check bool) "same node" true (d1 == d2);
  (match d1 with
  | Attr.Dict kvs ->
      Alcotest.(check (list string)) "sorted keys" [ "a"; "b" ]
        (List.map fst kvs)
  | _ -> Alcotest.fail "not a dict")

let intern_idempotent () =
  (* Interning a hand-built (bare-constructor) value once yields the
     canonical node; interning again is the identity. *)
  let raw = Attr.Array [ Attr.Int { value = 7L; ty = Attr.i64 } ] in
  let once = Attr.intern raw in
  Alcotest.(check bool) "intern (intern x) == intern x" true
    (Attr.intern once == once);
  Alcotest.(check bool) "canonical equals smart-constructed" true
    (once == Attr.array [ Attr.int 7L ]);
  let raw_ty = Attr.Tuple [ Attr.i32; Attr.f64 ] in
  let once_ty = Attr.intern_ty raw_ty in
  Alcotest.(check bool) "intern_ty idempotent" true
    (Attr.intern_ty once_ty == once_ty)

let ids_stable () =
  let a = Attr.string "id-stability" in
  Alcotest.(check int) "same node, same id" (Attr.id a)
    (Attr.id (Attr.string "id-stability"));
  let t = Attr.tuple [ Attr.i1; Attr.i1 ] in
  Alcotest.(check int) "same ty, same id" (Attr.id_ty t)
    (Attr.id_ty (Attr.tuple [ Attr.i1; Attr.i1 ]));
  Alcotest.(check bool) "distinct nodes, distinct ids" true
    (Attr.id (Attr.string "x") <> Attr.id (Attr.string "y"))

let stats_exposed () =
  let ctx = Context.create () in
  let attrs () = (Context.stats ctx).st_uniquing.us_attrs in
  let before = attrs () in
  (* A fresh value is a miss; rebuilding it is a hit. *)
  let _ = Attr.string "stats-probe-fresh" in
  let _ = Attr.string "stats-probe-fresh" in
  let after = attrs () in
  Alcotest.(check bool) "node count grew" true
    (after.Intern.nodes > before.Intern.nodes);
  Alcotest.(check bool) "hits grew" true (after.Intern.hits > before.Intern.hits);
  (* A domain's counts outlive it; its table does not. *)
  Domain.join
    (Domain.spawn (fun () -> ignore (Attr.string "stats-probe-exited")));
  let exited = attrs () in
  Alcotest.(check int) "an exited domain's miss is kept" (after.misses + 1)
    exited.misses;
  Alcotest.(check int) "its node is not" after.nodes exited.nodes

(* ---------------- property tests ---------------- *)

let attr_gen = Test_ir_property.attr_gen

let hash_consistent_with_equal =
  QCheck2.Test.make ~name:"equal a b implies hash a = hash b" ~count:300
    ~print:(fun (a, b) -> Attr.to_string a ^ " / " ^ Attr.to_string b)
    QCheck2.Gen.(pair attr_gen attr_gen)
    (fun (a, b) -> (not (Attr.equal a b)) || Attr.hash a = Attr.hash b)

let generated_attrs_are_canonical =
  (* Everything built through smart constructors is already interned. *)
  QCheck2.Test.make ~name:"smart-constructed attrs are canonical" ~count:300
    ~print:Attr.to_string attr_gen
    (fun a -> Attr.intern a == a)

let structural_equal_is_phys_equal =
  QCheck2.Test.make ~name:"structural equality collapses to identity"
    ~count:300
    ~print:(fun (a, b) -> Attr.to_string a ^ " / " ^ Attr.to_string b)
    QCheck2.Gen.(pair attr_gen attr_gen)
    (fun (a, b) -> Attr.equal a b = (a == b))

let suite =
  [
    tc "physical equality of constructed nodes" phys_eq_constructed;
    tc "parser and builder share nodes" phys_eq_parser_vs_builder;
    tc "dict canonical key order" dict_canonical_order;
    tc "intern is idempotent" intern_idempotent;
    tc "uniquer ids are stable" ids_stable;
    tc "context exposes uniquing stats" stats_exposed;
    QCheck_alcotest.to_alcotest hash_consistent_with_equal;
    QCheck_alcotest.to_alcotest generated_attrs_are_canonical;
    QCheck_alcotest.to_alcotest structural_equal_is_phys_equal;
  ]
