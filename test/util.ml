(** Shared helpers for the test suites. *)

let tc name f = Alcotest.test_case name `Quick f

let check_ok what = function
  | Ok v -> v
  | Error d -> Alcotest.failf "%s: %s" what (Irdl_support.Diag.to_string d)

(** Assert failure and return the diagnostic message. *)
let check_err what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error d -> Irdl_support.Diag.to_string d

let check_err_containing what needle result =
  let msg = check_err what result in
  let contains hay needle =
    let h = String.lowercase_ascii hay and n = String.lowercase_ascii needle in
    let hl = String.length h and nl = String.length n in
    let rec go i = i + nl <= hl && (String.sub h i nl = n || go (i + 1)) in
    nl = 0 || go 0
  in
  if not (contains msg needle) then
    Alcotest.failf "%s: error %S does not mention %S" what msg needle

(** A fresh context with cmath (and its native hooks) loaded. *)
let cmath_ctx () =
  let ctx = Irdl_ir.Context.create () in
  let _ = check_ok "load cmath" (Irdl_dialects.Cmath.load ctx) in
  ctx

(** [ctx], frozen: the signature memo serves only a frozen context. *)
let frozen ctx =
  Irdl_ir.Context.freeze ctx;
  ctx

(** Load one dialect from IRDL source into a fresh context. *)
let load_dialect ?native src =
  let ctx = Irdl_ir.Context.create () in
  let dl = check_ok "load dialect" (Irdl_core.Irdl.load_one ?native ctx src) in
  (ctx, dl)

let complex_f32 =
  Irdl_ir.Attr.dynamic ~dialect:"cmath" ~name:"complex"
    [ Irdl_ir.Attr.typ Irdl_ir.Attr.f32 ]

let complex_f64 =
  Irdl_ir.Attr.dynamic ~dialect:"cmath" ~name:"complex"
    [ Irdl_ir.Attr.typ Irdl_ir.Attr.f64 ]

(** Parse one op, failing the test on parse errors. *)
let parse_op ctx src =
  check_ok "parse op" (Irdl_ir.Parser.parse_op_string ctx src)

let verify_ok ctx op =
  match Irdl_ir.Verifier.verify ctx op with
  | Ok () -> ()
  | Error d -> Alcotest.failf "expected valid IR: %s" (Irdl_support.Diag.to_string d)

let verify_err ?containing ctx op =
  match Irdl_ir.Verifier.verify ctx op with
  | Ok () -> Alcotest.fail "expected a verification error"
  | Error d -> (
      match containing with
      | None -> ()
      | Some needle ->
          check_err_containing "verify" needle (Error d : (unit, _) result))

(** Round-trip oracles that do not go through the bytecode codec. Two
    modules are equal when their generic printed text is: the printer
    names values and blocks by position and prints no locations. *)
let module_text ops =
  Irdl_ir.Printer.ops_to_string ~generic:true (Irdl_ir.Context.create ()) ops

let module_eq ops1 ops2 = String.equal (module_text ops1) (module_text ops2)

(** Dialect equality up to locations and the surface AST [dl_ast]. The
    comparison is [compare], so a NaN in an [Eq] constraint equals
    itself. *)
let dialect_eq (d1 : Irdl_core.Resolve.dialect) d2 =
  let open Irdl_core.Resolve in
  let unknown = Irdl_support.Loc.unknown in
  let slots = List.map (fun s -> { s with s_loc = unknown }) in
  let typedef t = { t with td_params = slots t.td_params; td_loc = unknown } in
  let strip d =
    {
      d with
      dl_types = List.map typedef d.dl_types;
      dl_attrs = List.map typedef d.dl_attrs;
      dl_ops =
        List.map
          (fun o ->
            {
              o with
              op_operands = slots o.op_operands;
              op_results = slots o.op_results;
              op_attributes = slots o.op_attributes;
              op_regions =
                List.map (fun r -> { r with reg_args = slots r.reg_args })
                  o.op_regions;
              op_loc = unknown;
            })
          d.dl_ops;
      dl_enums =
        List.map
          (fun (e : Irdl_core.Ast.enum_def) -> { e with e_loc = unknown })
          d.dl_enums;
      dl_ast = { Irdl_core.Ast.d_name = ""; d_items = []; d_loc = unknown };
    }
  in
  compare (strip d1) (strip d2) = 0

(** The dialects of a pack, read and lifted without registering them:
    the first error as [Error]. *)
let read_pack blob =
  let engine, result = Irdl_support.Diag.Engine.fail_fast None in
  result
    (Result.map
       (fun ops -> Irdl_core.Dialect_ir.lift ~engine (List.to_seq ops))
       (Irdl_bytecode.Bytecode.read_module ~engine ~transient:true
          (Irdl_ir.Context.create ())
          blob))
