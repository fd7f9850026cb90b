(** Tests for the IRDL-C++ native registry: hook kinds, codecs, strict
    mode, and unresolved-snippet bookkeeping. *)

open Irdl_ir
module N = Irdl_core.Native
open Util

let def_hooks () =
  let n = N.create () in
  N.register_def_hook n "paramsSorted($_self)" (fun params ->
      let rec sorted = function
        | Attr.Int { value = a; _ } :: (Attr.Int { value = b; _ } :: _ as rest)
          ->
            a <= b && sorted rest
        | _ -> true
      in
      sorted params);
  let ctx = Context.create () in
  let _ =
    check_ok "load"
      (Irdl_core.Irdl.load_one ~native:n ctx
         {|Dialect d {
             Type sorted {
               Parameters (a: int64_t, b: int64_t)
               CppConstraint "paramsSorted($_self)"
             }
           }|})
  in
  let ty a b =
    Attr.dynamic ~dialect:"d" ~name:"sorted" [ Attr.int a; Attr.int b ]
  in
  verify_ok ctx (Graph.Op.create ~result_tys:[ ty 1L 2L ] "t.v");
  verify_err ~containing:"native" ctx
    (Graph.Op.create ~result_tys:[ ty 2L 1L ] "t.v")

let codecs () =
  let n = N.create () in
  Irdl_dialects.Cmath.register_hooks n;
  match N.find_codec n "StringParam" with
  | None -> Alcotest.fail "codec not registered"
  | Some codec -> (
      (match codec.N.codec_parse "hello" with
      | Some (Attr.Opaque { tag = "StringParam"; repr = "hello" }) -> ()
      | _ -> Alcotest.fail "parse");
      (match codec.N.codec_print (Attr.opaque ~tag:"StringParam" "x") with
      | Some "x" -> ()
      | _ -> Alcotest.fail "print");
      match codec.N.codec_print (Attr.int 1L) with
      | None -> ()
      | Some _ -> Alcotest.fail "print of non-opaque should fail")

let unresolved_bookkeeping () =
  let n = N.create () in
  (match N.check_param n "a()" (Attr.int 1L) with
  | Ok true -> ()
  | _ -> Alcotest.fail "non-strict accepts");
  (match N.check_op n "b()" (Graph.Op.create "t.x") with
  | Ok true -> ()
  | _ -> Alcotest.fail "non-strict accepts op");
  Alcotest.(check (list string)) "ordered oldest-first" [ "a()"; "b()" ]
    (N.unresolved n);
  N.clear_unresolved n;
  Alcotest.(check (list string)) "cleared" [] (N.unresolved n)

(* Every check of a hook-less snippet finds it unresolved, but it is
   recorded once: a resident server must not grow the list per op. *)
let unresolved_recorded_once () =
  let n = N.create () in
  let ctx = Context.create () in
  let _ =
    check_ok "load"
      (Irdl_core.Irdl.load_one ~native:n ctx
         {|Dialect d { Operation o { CppConstraint "mystery()" } }|})
  in
  let op = Graph.Op.create "d.o" in
  verify_ok ctx op;
  verify_ok ctx op;
  Context.freeze ctx;
  verify_ok ctx op;
  verify_ok ctx op;
  Alcotest.(check (list string)) "recorded once" [ "mystery()" ]
    (N.unresolved n)

(* Domains that verify ops carrying the same hook-less snippet record it
   once between them, and a strict registry still rejects each op. *)
let unresolved_across_domains () =
  let n = N.create () in
  let ctx = Context.create () in
  let _ =
    check_ok "load"
      (Irdl_core.Irdl.load_one ~native:n ctx
         {|Dialect d { Operation o { CppConstraint "mystery()" } }|})
  in
  Context.freeze ctx;
  let ops = Array.init 10_000 (fun _ -> Graph.Op.create "d.o") in
  let verify_every () =
    Array.to_list ops
    |> List.concat_map (Verifier.verify_all ctx)
    |> List.sort_uniq compare
    |> List.map Irdl_support.Diag.to_string
  in
  let on_domains f =
    List.map Domain.join (List.init 4 (fun _ -> Domain.spawn f))
  in
  List.iter
    (Alcotest.(check (list string)) "every op verifies" [])
    (on_domains verify_every);
  Alcotest.(check (list string)) "recorded once" [ "mystery()" ]
    (N.unresolved n);
  let strict_error =
    let sn = N.create ~strict:true () in
    let sctx, _ =
      load_dialect ~native:sn
        {|Dialect d { Operation o { CppConstraint "mystery()" } }|}
    in
    check_err "strict" (Verifier.verify sctx (Graph.Op.create "d.o"))
  in
  n.strict <- true;
  List.iter
    (Alcotest.(check (list string)) "strict rejects every op"
       [ strict_error ])
    (on_domains verify_every)

let strict_mode () =
  let n = N.create ~strict:true () in
  (match N.check_param n "x()" (Attr.int 1L) with
  | Error "x()" -> ()
  | _ -> Alcotest.fail "strict must surface the snippet");
  (* registered hooks still work in strict mode *)
  N.register_param_hook n "x()" (fun _ -> true);
  match N.check_param n "x()" (Attr.int 1L) with
  | Ok true -> ()
  | _ -> Alcotest.fail "registered hook in strict mode"

let strict_end_to_end () =
  let n = N.create ~strict:true () in
  let ctx = Context.create () in
  let _ =
    check_ok "load"
      (Irdl_core.Irdl.load_one ~native:n ctx
         {|Dialect d { Operation o { CppConstraint "mystery()" } }|})
  in
  verify_err ~containing:"strict" ctx (Graph.Op.create "d.o")

let hook_replacement () =
  let n = N.create () in
  N.register_param_hook n "p" (fun _ -> false);
  N.register_param_hook n "p" (fun _ -> true);
  match N.check_param n "p" Attr.Unit with
  | Ok true -> ()
  | _ -> Alcotest.fail "last registration wins"

let suite =
  [
    tc "definition-level hooks" def_hooks;
    tc "TypeOrAttrParam codecs" codecs;
    tc "unresolved snippets are recorded" unresolved_bookkeeping;
    tc "an unresolved snippet is recorded once" unresolved_recorded_once;
    tc "an unresolved snippet is recorded once across domains"
      unresolved_across_domains;
    tc "strict mode" strict_mode;
    tc "strict mode end-to-end" strict_end_to_end;
    tc "hook re-registration replaces" hook_replacement;
  ]
