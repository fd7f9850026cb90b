(** Tests for the IR printer: custom formats, generic fallback, and
    print/parse round-trips. *)

open Irdl_ir
open Util

(* tiny local substring helper *)
module Astring_contains = struct
  let contains hay needle =
    let hl = String.length hay and nl = String.length needle in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    nl = 0 || go 0
end

let roundtrip ?generic ctx op =
  let printed = Printer.op_to_string ?generic ctx op in
  let reparsed = parse_op ctx printed in
  (printed, reparsed)

let generic_form () =
  let ctx = Context.create () in
  let def = Graph.Op.create ~result_tys:[ Attr.i32 ] "t.def" in
  let use =
    Graph.Op.create
      ~operands:[ Graph.Op.result def 0 ]
      ~attrs:[ ("k", Attr.string "v") ]
      "t.use"
  in
  ignore (Printer.op_to_string ctx def);
  let s = Printer.op_to_string ctx use in
  (* operand name is assigned independently per printer; structure matters *)
  Alcotest.(check bool) "quoted name" true
    (String.length s > 0 && s.[0] = '"');
  Alcotest.(check bool) "attr dict" true
    (Astring_contains.contains s {|k = "v"|})

let custom_format_printing () =
  let ctx = cmath_ctx () in
  let p = Graph.Op.create ~result_tys:[ complex_f32 ] "t.def" in
  let mul =
    Graph.Op.create
      ~operands:[ Graph.Op.result p 0; Graph.Op.result p 0 ]
      ~result_tys:[ complex_f32 ] "cmath.mul"
  in
  let printer = Printer.create ctx in
  let _ = Printer.value_name printer (Graph.Op.result p 0) in
  let s = Fmt.str "%a" (Printer.pp_op printer) mul in
  Alcotest.(check string) "custom" "%1 = cmath.mul %0, %0 : f32" s

let generic_flag_overrides () =
  let ctx = cmath_ctx () in
  let p = Graph.Op.create ~result_tys:[ complex_f32 ] "t.def" in
  let norm =
    Graph.Op.create
      ~operands:[ Graph.Op.result p 0 ]
      ~result_tys:[ Attr.f32 ] "cmath.norm"
  in
  let s = Printer.op_to_string ~generic:true ctx norm in
  Alcotest.(check bool) "quoted" true
    (Astring_contains.contains s "\"cmath.norm\"")

let fallback_on_invalid () =
  let ctx = cmath_ctx () in
  (* A cmath.mul over a non-complex type cannot use the format's type
     projection; printing must fall back to generic form, not fail. *)
  let x = Graph.Op.create ~result_tys:[ Attr.i32 ] "t.def" in
  let bad =
    Graph.Op.create
      ~operands:[ Graph.Op.result x 0; Graph.Op.result x 0 ]
      ~result_tys:[ Attr.i32 ] "cmath.mul"
  in
  let s = Printer.op_to_string ctx bad in
  Alcotest.(check bool) "generic fallback" true
    (Astring_contains.contains s "\"cmath.mul\"")

let roundtrip_custom () =
  let ctx = cmath_ctx () in
  let func =
    parse_op ctx
      {|
"func.func"() ({
^bb0(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>):
  %m = cmath.mul %p, %q : f32
  %n = cmath.norm %m : f32
  "func.return"(%n) : (f32) -> ()
}) {sym_name = "f"} : () -> ()
|}
  in
  let printed, reparsed = roundtrip ctx func in
  verify_ok ctx reparsed;
  let printed2, _ = roundtrip ctx reparsed in
  Alcotest.(check string) "print is stable" printed printed2

let roundtrip_generic_only () =
  let ctx = cmath_ctx () in
  let func =
    parse_op ctx
      {|
"func.func"() ({
^bb0(%p: !cmath.complex<f32>):
  %n = cmath.norm %p : f32
  "func.return"(%n) : (f32) -> ()
}) : () -> ()
|}
  in
  (* Round-trip through fully generic syntax preserves verification. *)
  let printed, reparsed = roundtrip ~generic:true ctx func in
  Alcotest.(check bool) "no custom form used" false
    (Astring_contains.contains printed "cmath.norm %");
  verify_ok ctx reparsed

let successors_printed () =
  let ctx = cmath_ctx () in
  let op =
    parse_op ctx
      {|
"t.wrap"() ({
^entry(%c: i1):
  "cmath.conditional_branch"(%c)[^a, ^b] : (i1) -> ()
^a:
  "t.end"() : () -> ()
^b:
  "t.end"() : () -> ()
}) : () -> ()
|}
  in
  let printed, reparsed = roundtrip ctx op in
  Alcotest.(check bool) "successors present" true
    (Astring_contains.contains printed "[^bb");
  verify_ok ctx reparsed

let nested_regions_roundtrip () =
  let ctx = cmath_ctx () in
  let op =
    parse_op ctx
      {|
"t.outer"() ({
^bb0(%lb: i32):
  "cmath.range_loop"(%lb, %lb, %lb) ({
  ^body(%iv: i32):
    "cmath.range_loop_terminator"() : () -> ()
  }) : (i32, i32, i32) -> ()
}) : () -> ()
|}
  in
  let _, reparsed = roundtrip ctx op in
  verify_ok ctx reparsed;
  let count = ref 0 in
  Graph.Op.walk reparsed ~f:(fun _ -> incr count);
  Alcotest.(check int) "ops preserved" 3 !count

let attrs_roundtrip () =
  let ctx = Context.create () in
  let op =
    Graph.Op.create
      ~attrs:
        [
          ("i", Attr.int ~ty:Attr.i32 7L);
          ("f", Attr.float 2.5);
          ("s", Attr.string "x\"y");
          ("arr", Attr.array [ Attr.bool false; Attr.Unit ]);
          ("d", Attr.dict [ ("n", Attr.symbol "g") ]);
          ("t", Attr.typ complex_f32);
        ]
      "t.attrs"
  in
  let _, reparsed = roundtrip ctx op in
  List.iter
    (fun (k, v) ->
      match Graph.Op.attr reparsed k with
      | Some v' ->
          Alcotest.(check bool) ("attr " ^ k) true (Attr.equal v v')
      | None -> Alcotest.failf "missing attr %s" k)
    op.Graph.attrs

(* The Format wrappers add nothing to the one renderer, even inside
   nested boxes narrower than the text. *)
let pp_wraps_renderer () =
  let a =
    Attr.dict
      (List.init 12 (fun i ->
           ( Printf.sprintf "key%d" i,
             Attr.array [ Attr.string "some text"; Attr.typ complex_f32 ] )))
  in
  let s = Attr.to_string a in
  Alcotest.(check bool) "wider than the margin" true (String.length s > 200);
  Alcotest.(check string) "boxed pp" ("<" ^ s ^ ">")
    (Fmt.str "@[<hov 2><@[<v 4>%a@]>@]" Attr.pp a);
  Alcotest.(check string) "boxed pp_ty"
    (Attr.ty_to_string complex_f32)
    (Fmt.str "@[<hv 1>@[<hov 3>%a@]@]" Attr.pp_ty complex_f32)

(* cmath.mul's format prints both operands before its type projection
   fails on i32: the fallback must cut that text off again. *)
let fallback_mid_render () =
  let ctx = cmath_ctx () in
  let x = Graph.Op.create ~result_tys:[ Attr.i32 ] "t.def" in
  let bad =
    Graph.Op.create
      ~operands:[ Graph.Op.result x 0; Graph.Op.result x 0 ]
      ~result_tys:[ Attr.i32 ] "cmath.mul"
  in
  let printer = Printer.create ctx in
  let buf = Buffer.create 16 in
  Buffer.add_string buf "before;";
  Printer.add_op printer buf x;
  Buffer.add_char buf ';';
  Printer.add_op printer buf bad;
  Alcotest.(check string) "generic, no partial custom text"
    ({|before;%0 = "t.def"() : () -> (i32);|}
    ^ {|%1 = "cmath.mul"(%0, %0) : (i32, i32) -> (i32)|})
    (Buffer.contents buf)

(* Every byte value in a string attribute (and an op name, a location
   file and a native repr) survives text, and bytecode then text. *)
let all_bytes_roundtrip () =
  let ctx = Context.create () in
  let bytes = String.init 256 Char.chr in
  let op =
    Graph.Op.create
      ~attrs:
        [
          ("s", Attr.string bytes);
          ("l", Attr.location ~file:bytes ~line:1 ~col:2);
          ("n", Attr.opaque ~tag:"P" bytes);
        ]
      "t.bytes\"\x00\x7f\xff"
  in
  let printed = Printer.op_to_string ctx op in
  let reparsed = parse_op ctx printed in
  Alcotest.(check string) "op name" (Graph.Op.name op) (Graph.Op.name reparsed);
  Alcotest.(check bool) "attributes" true
    (List.for_all2
       (fun (k, v) (k', v') -> k = k' && Attr.equal v v')
       op.Graph.attrs reparsed.Graph.attrs);
  Alcotest.(check string) "text is a fixpoint" printed
    (Printer.op_to_string ctx reparsed);
  let blob =
    check_ok "emit" (Irdl_bytecode.Bytecode.Write.module_to_string [ op ])
  in
  let decoded =
    check_ok "decode" (Irdl_bytecode.Bytecode.read_module ctx blob)
  in
  Alcotest.(check string) "bytecode then text" printed
    (Printer.ops_to_string ctx decoded)

(* ---------------------------------------------------------------- *)
(* Op handles and the per-signature tail                             *)
(* ---------------------------------------------------------------- *)

(* The last op of a module whose first op defines [%a]. *)
let parse_after_def ctx ~ty src =
  let defs = Printf.sprintf {|%%a = "t.src"() : () -> %s|} ty in
  let ops = check_ok "parse" (Parser.parse_ops ctx (defs ^ "\n" ^ src)) in
  match List.rev ops with
  | op :: _ -> op
  | [] -> Alcotest.fail "no op parsed"

(* An open context records no handle, so an op parsed before its dialect
   was registered prints in the dialect's custom form after. *)
let parsed_before_registration_prints_custom () =
  let ctx = Context.create () in
  let ty = "!cmath.complex<f32>" in
  let src = {|%0 = "cmath.norm"(%a) : (!cmath.complex<f32>) -> f32|} in
  let op = parse_after_def ctx ~ty src in
  let generic = {|%0 = "cmath.norm"(%1) : (!cmath.complex<f32>) -> (f32)|} in
  Alcotest.(check string) "unregistered: generic" generic
    (Printer.op_to_string ctx op);
  let _ = check_ok "load cmath" (Irdl_dialects.Cmath.load ctx) in
  Alcotest.(check string) "registered: custom" "%0 = cmath.norm %1 : f32"
    (Printer.op_to_string ctx op);
  Alcotest.(check string) "reparsed: custom" "%0 = cmath.norm %1 : f32"
    (Printer.op_to_string ctx (parse_after_def ctx ~ty src));
  Alcotest.(check string) "custom form reparsed" "%0 = cmath.norm %1 : f32"
    (Printer.op_to_string ctx
       (parse_after_def ctx ~ty "%0 = cmath.norm %a : f32"))

(* One name with a format in one context and none in the other, printed
   in turn on one domain. *)
let two_contexts_in_turn () =
  let load format =
    frozen
      (fst
         (load_dialect
            (Printf.sprintf
               "Dialect d5 { Operation y { Operands (a: !i32) Results (r: \
                !i32) %s } }"
               format)))
  in
  let custom = load {|Format "$a"|} and plain = load "" in
  let src = {|%0 = "d5.y"(%a) : (i32) -> i32|} in
  let from_custom = parse_after_def custom ~ty:"i32" src
  and from_plain = parse_after_def plain ~ty:"i32" src in
  let generic = {|%0 = "d5.y"(%1) : (i32) -> (i32)|} in
  for _ = 1 to 3 do
    List.iter
      (fun op ->
        verify_ok custom op;
        Alcotest.(check string) "custom" "%0 = d5.y %1"
          (Printer.op_to_string custom op);
        verify_ok plain op;
        Alcotest.(check string) "generic" generic
          (Printer.op_to_string plain op))
      [ from_custom; from_plain ]
  done

(* The printed tail is kept per signature: an op changed after it was
   verified and printed prints what it is now. *)
let changed_op_prints_its_new_signature () =
  let ctx = frozen (Context.create ()) in
  let c32 = Graph.Op.create ~result_tys:[ complex_f32 ] "t.src"
  and c64 = Graph.Op.create ~result_tys:[ complex_f64 ] "t.src" in
  let op =
    Graph.Op.create
      ~operands:[ Graph.Op.result c32 0 ]
      ~attrs:[ ("k", Attr.string "v") ]
      ~result_tys:[ Attr.f32 ] "t.use"
  in
  (* Each print follows a verification, so the memo holds the signature
     and the second print of a signature copies its tail. *)
  let check what expected =
    for _ = 1 to 2 do
      verify_ok ctx op;
      Alcotest.(check string) what expected (Printer.op_to_string ctx op)
    done
  in
  check "as built"
    {|%0 = "t.use"(%1) {k = "v"} : (!cmath.complex<f32>) -> (f32)|};
  Graph.Op.set_attr op "k" (Attr.string "w");
  check "set_attr"
    {|%0 = "t.use"(%1) {k = "w"} : (!cmath.complex<f32>) -> (f32)|};
  Graph.Op.remove_attr op "k";
  check "remove_attr" {|%0 = "t.use"(%1) : (!cmath.complex<f32>) -> (f32)|};
  Graph.Value.replace_all_uses ~from:(Graph.Op.result c32 0)
    ~to_:(Graph.Op.result c64 0);
  check "replace_all_uses"
    {|%0 = "t.use"(%1) : (!cmath.complex<f64>) -> (f32)|};
  Graph.Op.set_attr op "k" (Attr.string "v");
  check "back to a recorded attribute"
    {|%0 = "t.use"(%1) {k = "v"} : (!cmath.complex<f64>) -> (f32)|}

let suite =
  [
    tc "generic form" generic_form;
    tc "custom format printing" custom_format_printing;
    tc "generic flag overrides formats" generic_flag_overrides;
    tc "fallback to generic on unprintable ops" fallback_on_invalid;
    tc "custom-format round trip is stable" roundtrip_custom;
    tc "generic round trip" roundtrip_generic_only;
    tc "successors round trip" successors_printed;
    tc "nested regions round trip" nested_regions_roundtrip;
    tc "attributes round trip" attrs_roundtrip;
    tc "Format wrappers equal the renderer" pp_wraps_renderer;
    tc "fallback mid-render leaves no partial text" fallback_mid_render;
    tc "every byte round-trips through text and bytecode" all_bytes_roundtrip;
    tc "an op parsed before its dialect prints in its format"
      parsed_before_registration_prints_custom;
    tc "two contexts in turn print with their own formats" two_contexts_in_turn;
    tc "a changed op prints its new signature"
      changed_op_prints_its_new_signature;
  ]
