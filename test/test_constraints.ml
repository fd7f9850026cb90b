(** Tests for the constraint language and its evaluator — one test per
    constructor of the paper's Figure 2, plus constraint-variable and
    IRDL-C++ semantics. *)

open Irdl_ir
module C = Irdl_core.Constraint_expr
open Util

let native = Irdl_core.Native.create ()

let sat ?(env = C.empty_env) c a =
  match C.verify ~native ~env c a with Ok _ -> true | Error _ -> false

let check_sat name c a = Alcotest.(check bool) name true (sat c a)
let check_unsat name c a = Alcotest.(check bool) name false (sat c a)

let tyv t = Attr.typ t

let any_constraints () =
  check_sat "AnyParam matches attr" C.Any (Attr.int 1L);
  check_sat "AnyParam matches type" C.Any (tyv Attr.f32);
  check_sat "AnyType matches type" C.Any_type (tyv Attr.f32);
  check_unsat "AnyType rejects attr" C.Any_type (Attr.int 1L);
  check_sat "AnyAttr matches" C.Any_attr (Attr.string "s")

let equality () =
  check_sat "type eq" (C.Eq (tyv Attr.f32)) (tyv Attr.f32);
  check_unsat "type neq" (C.Eq (tyv Attr.f32)) (tyv Attr.f64);
  check_sat "int literal" (C.Eq (Attr.int 3L)) (Attr.int 3L);
  check_unsat "int literal value" (C.Eq (Attr.int 3L)) (Attr.int 4L);
  check_sat "string literal" (C.Eq (Attr.string "foo")) (Attr.string "foo");
  check_sat "enum case"
    (C.Eq (Attr.enum ~dialect:"d" ~enum:"e" "A"))
    (Attr.enum ~dialect:"d" ~enum:"e" "A");
  check_unsat "enum case differs"
    (C.Eq (Attr.enum ~dialect:"d" ~enum:"e" "A"))
    (Attr.enum ~dialect:"d" ~enum:"e" "B")

let base_type () =
  let base = C.Base_type { dialect = "cmath"; name = "complex"; params = None } in
  check_sat "base no params" base (tyv complex_f32);
  check_sat "base any params" base (tyv complex_f64);
  check_unsat "other dialect" base
    (tyv (Attr.dynamic ~dialect:"other" ~name:"complex" []));
  check_unsat "not a dynamic type" base (tyv Attr.f32);
  let withp =
    C.Base_type
      { dialect = "cmath"; name = "complex"; params = Some [ C.Eq (tyv Attr.f32) ] }
  in
  check_sat "param match" withp (tyv complex_f32);
  check_unsat "param mismatch" withp (tyv complex_f64);
  let wrong_arity =
    C.Base_type { dialect = "cmath"; name = "complex"; params = Some [] }
  in
  check_unsat "arity" wrong_arity (tyv complex_f32)

let base_attr () =
  let a = Attr.Dyn_attr { dialect = "d"; name = "a"; params = [ Attr.int 1L ] } in
  check_sat "base attr"
    (C.Base_attr { dialect = "d"; name = "a"; params = None })
    a;
  check_sat "param"
    (C.Base_attr { dialect = "d"; name = "a"; params = Some [ C.Eq (Attr.int 1L) ] })
    a;
  check_unsat "not dyn attr"
    (C.Base_attr { dialect = "d"; name = "a"; params = None })
    (Attr.int 1L)

let int_params () =
  let u8 = C.Int_param { C.ik_width = 8; ik_signedness = Attr.Unsigned } in
  let mk ?(sign = Attr.Unsigned) v w =
    Attr.Int { value = v; ty = Attr.integer ~signedness:sign w }
  in
  check_sat "in range" u8 (mk 200L 8);
  check_unsat "out of range" u8 (mk 300L 8);
  check_unsat "negative for unsigned" u8 (mk (-1L) 8);
  check_unsat "wrong width" u8 (mk 1L 16);
  check_sat "signless accepted" u8
    (Attr.Int { value = 5L; ty = Attr.i8 });
  let s8 = C.Int_param { C.ik_width = 8; ik_signedness = Attr.Signed } in
  check_sat "signed low" s8 (mk ~sign:Attr.Signed (-128L) 8);
  check_unsat "signed overflow" s8 (mk ~sign:Attr.Signed 128L 8);
  check_unsat "not an int" u8 (Attr.string "8")

let float_params () =
  check_sat "any float" (C.Float_param None) (Attr.float 1.0);
  check_sat "f32" (C.Float_param (Some Attr.F32))
    (Attr.float ~ty:Attr.f32 1.0);
  check_unsat "kind mismatch" (C.Float_param (Some Attr.F32)) (Attr.float 1.0);
  check_unsat "not a float" (C.Float_param None) (Attr.int 1L)

let scalar_params () =
  check_sat "string" C.String_param (Attr.string "x");
  check_unsat "string rejects int" C.String_param (Attr.int 1L);
  check_sat "symbol" C.Symbol_param (Attr.symbol "f");
  check_sat "bool" C.Bool_param (Attr.bool true);
  check_sat "location" C.Location_param
    (Attr.Location { file = "f"; line = 1; col = 1 });
  check_sat "type id" C.Type_id_param (Attr.Type_id "X")

let enum_params () =
  let c = C.Enum_param { dialect = "d"; enum = "e" } in
  check_sat "any case" c (Attr.enum ~dialect:"d" ~enum:"e" "A");
  check_sat "other case" c (Attr.enum ~dialect:"d" ~enum:"e" "B");
  check_unsat "other enum" c (Attr.enum ~dialect:"d" ~enum:"f" "A")

let arrays () =
  check_sat "array any" C.Array_any (Attr.array [ Attr.int 1L ]);
  check_unsat "array any rejects scalar" C.Array_any (Attr.int 1L);
  let ints = C.Array_of (C.Int_param { C.ik_width = 64; ik_signedness = Attr.Signed }) in
  check_sat "array<int64>" ints (Attr.array [ Attr.int 1L; Attr.int 2L ]);
  check_sat "empty ok" ints (Attr.array []);
  check_unsat "bad element" ints (Attr.array [ Attr.string "x" ]);
  let exact = C.Array_exact [ C.Any_type; C.String_param ] in
  check_sat "exact" exact (Attr.array [ tyv Attr.f32; Attr.string "s" ]);
  check_unsat "exact length" exact (Attr.array [ tyv Attr.f32 ]);
  check_unsat "exact order" exact (Attr.array [ Attr.string "s"; tyv Attr.f32 ])

let combinators () =
  let f32_or_f64 = C.Any_of [ C.Eq (tyv Attr.f32); C.Eq (tyv Attr.f64) ] in
  check_sat "anyof 1" f32_or_f64 (tyv Attr.f32);
  check_sat "anyof 2" f32_or_f64 (tyv Attr.f64);
  check_unsat "anyof none" f32_or_f64 (tyv Attr.i32);
  (* And<int32_t, Not<0 : int32_t>> — the paper's non-null example *)
  let nonzero =
    C.And
      [
        C.Int_param { C.ik_width = 32; ik_signedness = Attr.Signed };
        C.Not (C.Eq (Attr.Int { value = 0L; ty = Attr.integer ~signedness:Attr.Signed 32 }));
      ]
  in
  check_sat "nonzero ok"
    nonzero
    (Attr.Int { value = 5L; ty = Attr.integer ~signedness:Attr.Signed 32 });
  check_unsat "zero rejected" nonzero
    (Attr.Int { value = 0L; ty = Attr.integer ~signedness:Attr.Signed 32 });
  check_sat "not" (C.Not C.String_param) (Attr.int 1L);
  check_unsat "not rejects" (C.Not C.String_param) (Attr.string "s")

let variables () =
  let v = { C.v_name = "T"; v_constraint = C.Any_type } in
  let c = C.Var v in
  (* First use binds, second must be equal. *)
  let env = C.empty_env in
  let env =
    match C.verify ~native ~env c (tyv Attr.f32) with
    | Ok env -> env
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "same rebind ok" true
    (Result.is_ok (C.verify ~native ~env c (tyv Attr.f32)));
  Alcotest.(check bool) "different rejected" false
    (Result.is_ok (C.verify ~native ~env c (tyv Attr.f64)));
  (* The variable's own constraint is checked at bind time. *)
  let bad = C.Var { C.v_name = "U"; v_constraint = C.String_param } in
  check_unsat "var constraint" bad (tyv Attr.f32)

let variables_in_not () =
  (* Bindings inside a negation must not leak. *)
  let v = { C.v_name = "T"; v_constraint = C.Eq (tyv Attr.i32) } in
  let c = C.Not (C.Var v) in
  match C.verify ~native ~env:C.empty_env c (tyv Attr.f32) with
  | Ok env -> Alcotest.(check bool) "no leak" true (C.Env.is_empty env)
  | Error e -> Alcotest.fail e

(* The interpreted evaluator must restore the environment when a branch
   fails: bindings made inside a failed [AnyOf] alternative or a failed
   [And] conjunct must not leak into subsequent checks. (The env is a
   persistent map, so this holds by construction — these tests pin the
   behaviour down so a future mutable-env optimisation cannot silently
   break it.) *)
let env_restoration_anyof () =
  let v = { C.v_name = "T"; v_constraint = C.Any_type } in
  (* First alternative binds T, then fails on String_param; the succeeding
     second alternative must see no binding for T. *)
  let c = C.Any_of [ C.And [ C.Var v; C.String_param ]; C.Any_type ] in
  (match C.verify ~native ~env:C.empty_env c (tyv Attr.f32) with
  | Ok env ->
      Alcotest.(check bool) "failed branch binding dropped" true
        (C.Env.is_empty env)
  | Error e -> Alcotest.fail e);
  (* With T pre-bound to f64, the first alternative fails on the Var
     equality; the pre-existing binding must survive untouched. *)
  let env0 = C.Env.add "T" (tyv Attr.f64) C.empty_env in
  let c' = C.Any_of [ C.And [ C.Var v; C.Any ]; C.Any_type ] in
  match C.verify ~native ~env:env0 c' (tyv Attr.f32) with
  | Ok env ->
      Alcotest.(check bool) "pre-existing binding intact" true
        (C.Env.equal Attr.equal env env0)
  | Error e -> Alcotest.fail e

let env_restoration_and () =
  let v = { C.v_name = "T"; v_constraint = C.Any_type } in
  (* The And fails on its second conjunct after the first bound T: the
     caller's environment must be unchanged by the failed check. *)
  let env0 = C.empty_env in
  let c = C.And [ C.Var v; C.String_param ] in
  (match C.verify ~native ~env:env0 c (tyv Attr.f32) with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> ());
  Alcotest.(check bool) "caller env unchanged" true (C.Env.is_empty env0);
  (* The same failed And inside an enclosing AnyOf: a later use of T must
     bind fresh, not see the failed conjunct's binding. *)
  let c' = C.Any_of [ c; C.Var v ] in
  match C.verify ~native ~env:C.empty_env c' (tyv Attr.f64) with
  | Ok env ->
      Alcotest.(check bool) "T re-bound by surviving branch" true
        (match C.Env.find_opt "T" env with
        | Some a -> Attr.equal a (tyv Attr.f64)
        | None -> false)
  | Error e -> Alcotest.fail e

let natives () =
  let n = Irdl_core.Native.create () in
  Irdl_core.Native.register_param_hook n "$_self > 0" (fun a ->
      match a with Attr.Int { value; _ } -> value > 0L | _ -> false);
  let c =
    C.Native
      { name = "Pos"; base = C.Int_param { C.ik_width = 64; ik_signedness = Attr.Signless };
        snippets = [ "$_self > 0" ] }
  in
  let ok a = Result.is_ok (C.verify ~native:n ~env:C.empty_env c a) in
  Alcotest.(check bool) "positive" true (ok (Attr.int 3L));
  Alcotest.(check bool) "zero" false (ok (Attr.int 0L));
  (* base constraint is still enforced *)
  Alcotest.(check bool) "base" false (ok (Attr.string "3"))

let natives_unregistered () =
  (* Non-strict: unresolved snippets accept and are recorded. *)
  let n = Irdl_core.Native.create () in
  let c = C.Native { name = "X"; base = C.Any; snippets = [ "mystery()" ] } in
  Alcotest.(check bool) "accepted" true
    (Result.is_ok (C.verify ~native:n ~env:C.empty_env c (Attr.int 1L)));
  Alcotest.(check (list string)) "recorded" [ "mystery()" ]
    (Irdl_core.Native.unresolved n);
  (* Strict mode: hard error. *)
  let strict = Irdl_core.Native.create ~strict:true () in
  Alcotest.(check bool) "strict rejects" false
    (Result.is_ok (C.verify ~native:strict ~env:C.empty_env c (Attr.int 1L)))

let native_params () =
  let c = C.Native_param { name = "StringParam"; class_name = "char*" } in
  check_sat "tag match" c (Attr.opaque ~tag:"StringParam" "x");
  check_unsat "tag mismatch" c (Attr.opaque ~tag:"Other" "x");
  check_unsat "not opaque" c (Attr.string "x")

let variadic_transparent () =
  check_sat "variadic element" (C.Variadic (C.Eq (tyv Attr.i32))) (tyv Attr.i32);
  check_sat "optional element" (C.Optional (C.Eq (tyv Attr.i32))) (tyv Attr.i32);
  Alcotest.(check bool) "is_variadic" true (C.is_variadic (C.Variadic C.Any));
  Alcotest.(check bool) "optional is variadic" true
    (C.is_variadic (C.Optional C.Any));
  Alcotest.(check bool) "is_optional" false (C.is_optional (C.Variadic C.Any));
  Alcotest.(check bool) "strip" true
    (C.strip_variadic (C.Variadic (C.Optional C.Any)) = C.Any)

let pp_syntax () =
  Alcotest.(check string) "anyof" "AnyOf<!AnyType, string>"
    (C.to_string (C.Any_of [ C.Any_type; C.String_param ]));
  Alcotest.(check string) "int kind" "uint8_t"
    (C.to_string (C.Int_param { C.ik_width = 8; ik_signedness = Attr.Unsigned }));
  Alcotest.(check string) "base" "!cmath.complex<f32>"
    (C.to_string
       (C.Base_type
          { dialect = "cmath"; name = "complex";
            params = Some [ C.Eq (tyv Attr.f32) ] }))

(* Properties over random attributes *)
let attr_gen =
  let open QCheck2.Gen in
  oneof
    [
      map (fun i -> Attr.int (Int64.of_int i)) small_int;
      map Attr.string string_printable;
      map Attr.bool bool;
      return (Attr.typ Attr.f32);
      return (Attr.typ Attr.i32);
      map (fun l -> Attr.array (List.map (fun i -> Attr.int (Int64.of_int i)) l))
        (small_list small_int);
    ]

let prop_not_involutive =
  QCheck2.Test.make ~name:"Not<Not<c>> agrees with c" ~count:300 attr_gen
    (fun a ->
      let cs = [ C.Any_type; C.String_param; C.Array_any; C.Any ] in
      List.for_all
        (fun c -> sat (C.Not (C.Not c)) a = sat c a)
        cs)

let prop_anyof_or =
  QCheck2.Test.make ~name:"AnyOf is disjunction" ~count:300 attr_gen (fun a ->
      let c1 = C.String_param and c2 = C.Array_any in
      sat (C.Any_of [ c1; c2 ]) a = (sat c1 a || sat c2 a))

let prop_and_conj =
  QCheck2.Test.make ~name:"And is conjunction" ~count:300 attr_gen (fun a ->
      let c1 = C.Any_attr and c2 = C.String_param in
      sat (C.And [ c1; c2 ]) a = (sat c1 a && sat c2 a))

let prop_eq_reflexive =
  QCheck2.Test.make ~name:"Eq is satisfied by its own value" ~count:300
    attr_gen (fun a -> sat (C.Eq a) a)

(* Random constraint trees over a small attribute pool, so that generated
   constraints accept often enough to build environments, not just
   failure messages. *)
(* A deliberately small attribute pool so that generated constraints accept
   generated attributes often enough to exercise the success paths (and the
   environments they build), not just the failure messages. *)
let base_attrs =
  [
    Attr.typ Attr.f32;
    Attr.typ Attr.f64;
    Attr.typ Attr.i32;
    Attr.typ (Attr.dynamic ~dialect:"cmath" ~name:"complex"
                [ Attr.typ Attr.f32 ]);
    Attr.int 0L;
    Attr.int 3L;
    Attr.int ~ty:Attr.i32 1L;
    Attr.float 1.5;
    Attr.float ~ty:Attr.f32 0.25;
    Attr.string "a";
    Attr.string "b";
    Attr.bool true;
    Attr.unit;
    Attr.symbol "sym";
    Attr.enum ~dialect:"d" ~enum:"e" "A";
    Attr.enum ~dialect:"d" ~enum:"e" "B";
    Attr.opaque ~tag:"P" "x";
    Attr.opaque ~tag:"Q" "y";
    Attr.type_id "X";
    Attr.location ~file:"f.mlir" ~line:1 ~col:2;
  ]

let tree_attr_gen =
  let open QCheck2.Gen in
  let scalar = oneofl base_attrs in
  let rec go n =
    if n = 0 then scalar
    else
      frequency
        [
          (4, scalar);
          (1, map Attr.array (list_size (int_range 0 3) (go (n - 1))));
          ( 1,
            map
              (fun ps -> Attr.dyn_attr ~dialect:"d" ~name:"a" ps)
              (list_size (int_range 0 2) (go (n - 1))) );
        ]
  in
  go 2

let int_kind_c w s = C.Int_param { C.ik_width = w; ik_signedness = s }

let leaf_constraint_gen =
  let open QCheck2.Gen in
  oneof
    [
      oneofl
        [
          C.Any;
          C.Any_type;
          C.Any_attr;
          C.String_param;
          C.Symbol_param;
          C.Bool_param;
          C.Location_param;
          C.Type_id_param;
          C.Array_any;
          int_kind_c 32 Attr.Signless;
          int_kind_c 8 Attr.Unsigned;
          C.Float_param None;
          C.Float_param (Some Attr.F32);
          C.Enum_param { dialect = "d"; enum = "e" };
          C.Native_param { name = "P"; class_name = "char*" };
          C.Base_type { dialect = "cmath"; name = "complex"; params = None };
          C.Base_type
            {
              dialect = "cmath";
              name = "complex";
              params = Some [ C.Eq (Attr.typ Attr.f32) ];
            };
          C.Base_attr { dialect = "d"; name = "a"; params = None };
          C.Base_attr { dialect = "d"; name = "a"; params = Some [ C.Any ] };
        ];
      map (fun a -> C.Eq a) tree_attr_gen;
    ]

let constraint_gen =
  let open QCheck2.Gen in
  let rec go n =
    if n = 0 then leaf_constraint_gen
    else
      let sub = go (n - 1) in
      frequency
        [
          (3, leaf_constraint_gen);
          (2, map (fun cs -> C.Any_of cs) (list_size (int_range 1 3) sub));
          (2, map (fun cs -> C.And cs) (list_size (int_range 1 3) sub));
          (1, map (fun c -> C.Not c) sub);
          (1, map (fun c -> C.Array_of c) sub);
          (1, map (fun cs -> C.Array_exact cs) (list_size (int_range 0 2) sub));
          ( 2,
            map2
              (fun name c -> C.Var { C.v_name = name; v_constraint = c })
              (oneofl [ "T"; "U" ])
              sub );
          ( 1,
            map
              (fun c ->
                C.Native { name = "nat"; base = c; snippets = [ "$_self" ] })
              sub );
        ]
  in
  go 3

let rec vars_of (c : C.t) =
  match c with
  | Var { v_name; v_constraint } -> v_name :: vars_of v_constraint
  | Base_type { params = Some cs; _ }
  | Base_attr { params = Some cs; _ }
  | Array_exact cs | Any_of cs | And cs ->
      List.concat_map vars_of cs
  | Array_of c | Not c | Variadic c | Optional c | Native { base = c; _ } ->
      vars_of c
  | _ -> []

(* Threading one environment through several checks of one constraint is
   how operand slots share [ConstraintVars] variables. On any tree, with a
   default and a strict native registry, the evaluator returns a verdict
   (no exception), and an accepted run binds only the tree's variables. *)
let prop_verify_total =
  let natives =
    [ Irdl_core.Native.create (); Irdl_core.Native.create ~strict:true () ]
  in
  QCheck2.Test.make ~name:"verify is total on random trees" ~count:700
    QCheck2.Gen.(pair constraint_gen (list_size (int_range 1 4) tree_attr_gen))
    (fun (c, attrs) ->
      let vars = vars_of c in
      List.for_all
        (fun native ->
          let run () =
            List.fold_left
              (fun acc a ->
                match acc with
                | Error _ as e -> e
                | Ok env -> C.verify ~native ~env c a)
              (Ok C.empty_env) attrs
          in
          match run () with
          | Ok env ->
              C.Env.for_all (fun v _ -> List.mem v vars) env
              || QCheck2.Test.fail_reportf "%a bound a foreign variable" C.pp
                   c
          | Error _ -> true
          | exception e ->
              QCheck2.Test.fail_reportf "%a against [%a] raised %s" C.pp c
                Fmt.(list ~sep:(any ", ") Attr.pp)
                attrs (Printexc.to_string e))
        natives)

let suite =
  [
    tc "Any / AnyType / AnyAttr" any_constraints;
    tc "equality constraints" equality;
    tc "base type constraints" base_type;
    tc "base attribute constraints" base_attr;
    tc "integer parameter kinds and ranges" int_params;
    tc "float parameters" float_params;
    tc "string/symbol/bool/location/type-id parameters" scalar_params;
    tc "enum parameters" enum_params;
    tc "array constraints" arrays;
    tc "AnyOf / And / Not" combinators;
    tc "constraint variables bind once" variables;
    tc "negation discards bindings" variables_in_not;
    tc "failed AnyOf branches restore the env" env_restoration_anyof;
    tc "failed And conjuncts restore the env" env_restoration_and;
    tc "native constraints run registered hooks" natives;
    tc "unregistered snippets: counted or strict" natives_unregistered;
    tc "native parameters match tags" native_params;
    tc "variadic wrappers are element-transparent" variadic_transparent;
    tc "constraint pretty-printing" pp_syntax;
    QCheck_alcotest.to_alcotest prop_not_involutive;
    QCheck_alcotest.to_alcotest prop_anyof_or;
    QCheck_alcotest.to_alcotest prop_and_conj;
    QCheck_alcotest.to_alcotest prop_eq_reflexive;
  ]

let fuzz_suite = [ QCheck_alcotest.to_alcotest prop_verify_total ]
