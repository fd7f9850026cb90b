(** Recursive-descent parser for IRDL.

    The grammar is LL(1) over the token stream produced by {!Lexer}; IRDL
    keywords are contextual, so definition names may collide with them.
    Every error is emitted to the parser's engine and parsing resumes at
    the next item or dialect; an entry point called without an engine
    returns its first error ({!Diag.Engine.fail_fast}). *)

open Irdl_support

type t = {
  buf : Sbuf.t;
  engine : Diag.Engine.t;  (** where recovered errors go *)
  mutable lookahead : Lexer.t;
}

(* Lex the next token. Lexer errors are emitted to the engine and lexing
   retried: every lexer raise leaves the buffer strictly advanced (or at
   end of file), so this terminates. *)
let rec next_token p =
  match Lexer.next_token p.buf with
  | t -> t
  | exception Diag.Error_exn d ->
      Diag.Engine.emit p.engine d;
      next_token p

let create ?(file = "<string>") ~engine src =
  let buf = Sbuf.create ~file src in
  let p = { buf; engine; lookahead = { Lexer.tok = Lexer.Eof; loc = Loc.unknown } } in
  p.lookahead <- next_token p;
  p

let peek p = p.lookahead.tok
let loc p = p.lookahead.loc

let advance p =
  let t = p.lookahead in
  p.lookahead <- next_token p;
  t

let fail p fmt =
  Diag.raise_error ~loc:(loc p)
    ("at '%a': " ^^ fmt)
    Lexer.pp_token (peek p)

let expect_punct p s =
  match peek p with
  | Lexer.Punct s' when s = s' -> ignore (advance p)
  | _ -> fail p "expected '%s'" s

let accept_punct p s =
  match peek p with
  | Lexer.Punct s' when s = s' ->
      ignore (advance p);
      true
  | _ -> false

let expect_ident p =
  match peek p with
  | Lexer.Ident s ->
      ignore (advance p);
      s
  | _ -> fail p "expected identifier"

let expect_string p =
  match peek p with
  | Lexer.Str s ->
      ignore (advance p);
      s
  | _ -> fail p "expected string literal"

let accept_keyword p kw =
  match peek p with
  | Lexer.Ident s when s = kw ->
      ignore (advance p);
      true
  | _ -> false

(* --------------------------------------------------------------- *)
(* Constraint expressions                                           *)
(* --------------------------------------------------------------- *)

let rec parse_cexpr p : Ast.cexpr =
  let start = loc p in
  match peek p with
  | Lexer.Int_lit value ->
      ignore (advance p);
      let kind =
        if accept_punct p ":" then Some (expect_ident p) else None
      in
      Ast.C_int { value; kind; loc = Loc.merge start (loc p) }
  | Lexer.Str value ->
      ignore (advance p);
      Ast.C_string { value; loc = start }
  | Lexer.Punct "[" ->
      ignore (advance p);
      let elems =
        if accept_punct p "]" then []
        else
          let rec go acc =
            let e = parse_cexpr p in
            if accept_punct p "," then go (e :: acc)
            else (
              expect_punct p "]";
              List.rev (e :: acc))
          in
          go []
      in
      Ast.C_list { elems; loc = Loc.merge start (loc p) }
  | Lexer.Ident name ->
      ignore (advance p);
      parse_ref_args p ~prefix:Ast.P_bare ~name ~start
  | Lexer.Bang_ident name ->
      ignore (advance p);
      parse_ref_args p ~prefix:Ast.P_type ~name ~start
  | Lexer.Hash_ident name ->
      ignore (advance p);
      parse_ref_args p ~prefix:Ast.P_attr ~name ~start
  | _ -> fail p "expected a constraint expression"

and parse_ref_args p ~prefix ~name ~start : Ast.cexpr =
  let args =
    if accept_punct p "<" then
      if accept_punct p ">" then Some []
      else
        let rec go acc =
          let e = parse_cexpr p in
          if accept_punct p "," then go (e :: acc)
          else (
            expect_punct p ">";
            List.rev (e :: acc))
        in
        Some (go [])
    else None
  in
  Ast.C_ref { prefix; name; args; loc = Loc.merge start (loc p) }

(* --------------------------------------------------------------- *)
(* Binder lists: (name: constraint, ...)                            *)
(* --------------------------------------------------------------- *)

(** Binder names may carry a decorative [!]/[#] prefix, as in the paper's
    [ConstraintVar (!T: !complex<FloatType>)]. *)
let parse_binder_name p =
  match peek p with
  | Lexer.Ident s | Lexer.Bang_ident s | Lexer.Hash_ident s ->
      ignore (advance p);
      s
  | _ -> fail p "expected binder name"

let parse_params p : Ast.param list =
  expect_punct p "(";
  if accept_punct p ")" then []
  else
    let rec go acc =
      let p_loc = loc p in
      let p_name = parse_binder_name p in
      expect_punct p ":";
      let p_constraint = parse_cexpr p in
      let param = { Ast.p_name; p_constraint; p_loc } in
      if accept_punct p "," then go (param :: acc)
      else (
        expect_punct p ")";
        List.rev (param :: acc))
    in
    go []

(* --------------------------------------------------------------- *)
(* Definitions                                                      *)
(* --------------------------------------------------------------- *)

type type_like_acc = {
  mutable tl_params : Ast.param list;
  mutable tl_summary : string option;
  mutable tl_cpp : string list;
}

let parse_type_like_body p =
  expect_punct p "{";
  let acc = { tl_params = []; tl_summary = None; tl_cpp = [] } in
  let rec go () =
    if accept_punct p "}" then ()
    else if accept_keyword p "Parameters" then (
      acc.tl_params <- acc.tl_params @ parse_params p;
      go ())
    else if accept_keyword p "Summary" then (
      acc.tl_summary <- Some (expect_string p);
      go ())
    else if accept_keyword p "CppConstraint" then (
      acc.tl_cpp <- acc.tl_cpp @ [ expect_string p ];
      go ())
    else fail p "expected Parameters, Summary, CppConstraint or '}'"
  in
  go ();
  acc

let parse_type_def p ~start : Ast.type_def =
  let t_name = expect_ident p in
  let acc = parse_type_like_body p in
  {
    t_name;
    t_params = acc.tl_params;
    t_summary = acc.tl_summary;
    t_cpp_constraints = acc.tl_cpp;
    t_loc = Loc.merge start (loc p);
  }

let parse_attr_def p ~start : Ast.attr_def =
  let a_name = expect_ident p in
  let acc = parse_type_like_body p in
  {
    a_name;
    a_params = acc.tl_params;
    a_summary = acc.tl_summary;
    a_cpp_constraints = acc.tl_cpp;
    a_loc = Loc.merge start (loc p);
  }

let parse_region_def p : Ast.region_def =
  let r_loc = loc p in
  let r_name = expect_ident p in
  expect_punct p "{";
  let args = ref [] in
  let terminator = ref None in
  let rec go () =
    if accept_punct p "}" then ()
    else if accept_keyword p "Arguments" then (
      args := !args @ parse_params p;
      go ())
    else if accept_keyword p "Terminator" then (
      terminator := Some (expect_ident p);
      go ())
    else fail p "expected Arguments, Terminator or '}' in region definition"
  in
  go ();
  { r_name; r_args = !args; r_terminator = !terminator; r_loc }

let parse_successors p =
  expect_punct p "(";
  if accept_punct p ")" then []
  else
    let rec go acc =
      let s = parse_binder_name p in
      if accept_punct p "," then go (s :: acc)
      else (
        expect_punct p ")";
        List.rev (s :: acc))
    in
    go []

let parse_op_def p ~start : Ast.op_def =
  let o_name = expect_ident p in
  expect_punct p "{";
  let summary = ref None in
  let cvars = ref [] in
  let operands = ref [] in
  let results = ref [] in
  let attributes = ref [] in
  let regions = ref [] in
  let successors = ref None in
  let format = ref None in
  let cpp = ref [] in
  let rec go () =
    if accept_punct p "}" then ()
    else begin
      (if accept_keyword p "Summary" then summary := Some (expect_string p)
       else if accept_keyword p "ConstraintVar" || accept_keyword p "ConstraintVars"
       then cvars := !cvars @ parse_params p
       else if accept_keyword p "Operands" then
         operands := !operands @ parse_params p
       else if accept_keyword p "Results" then
         results := !results @ parse_params p
       else if accept_keyword p "Attributes" then
         attributes := !attributes @ parse_params p
       else if accept_keyword p "Region" then
         regions := !regions @ [ parse_region_def p ]
       else if accept_keyword p "Successors" then
         successors := Some (parse_successors p)
       else if accept_keyword p "Format" then format := Some (expect_string p)
       else if accept_keyword p "CppConstraint" then
         cpp := !cpp @ [ expect_string p ]
       else
         fail p
           "expected an operation field (Summary, ConstraintVar(s), \
            Operands, Results, Attributes, Region, Successors, Format, \
            CppConstraint) or '}'");
      go ()
    end
  in
  go ();
  {
    o_name;
    o_summary = !summary;
    o_constraint_vars = !cvars;
    o_operands = !operands;
    o_results = !results;
    o_attributes = !attributes;
    o_regions = !regions;
    o_successors = !successors;
    o_format = !format;
    o_cpp_constraints = !cpp;
    o_loc = Loc.merge start (loc p);
  }

let parse_alias_def p ~start : Ast.alias_def =
  let al_prefix, al_name =
    match peek p with
    | Lexer.Ident s ->
        ignore (advance p);
        (Ast.P_bare, s)
    | Lexer.Bang_ident s ->
        ignore (advance p);
        (Ast.P_type, s)
    | Lexer.Hash_ident s ->
        ignore (advance p);
        (Ast.P_attr, s)
    | _ -> fail p "expected alias name"
  in
  let al_params =
    if accept_punct p "<" then
      let rec go acc =
        let s = parse_binder_name p in
        if accept_punct p "," then go (s :: acc)
        else (
          expect_punct p ">";
          List.rev (s :: acc))
      in
      go []
    else []
  in
  expect_punct p "=";
  let al_body = parse_cexpr p in
  { al_prefix; al_name; al_params; al_body; al_loc = Loc.merge start (loc p) }

let parse_enum_def p ~start : Ast.enum_def =
  let e_name = expect_ident p in
  expect_punct p "{";
  let cases =
    if accept_punct p "}" then []
    else
      let rec go acc =
        let c = expect_ident p in
        if accept_punct p "," then go (c :: acc)
        else (
          expect_punct p "}";
          List.rev (c :: acc))
      in
      go []
  in
  { e_name; e_cases = cases; e_loc = Loc.merge start (loc p) }

let parse_constraint_def p ~start : Ast.constraint_def =
  let c_name = expect_ident p in
  expect_punct p ":";
  let c_base = parse_cexpr p in
  expect_punct p "{";
  let summary = ref None in
  let cpp = ref [] in
  let rec go () =
    if accept_punct p "}" then ()
    else if accept_keyword p "Summary" then (
      summary := Some (expect_string p);
      go ())
    else if accept_keyword p "CppConstraint" then (
      cpp := !cpp @ [ expect_string p ];
      go ())
    else fail p "expected Summary, CppConstraint or '}'"
  in
  go ();
  {
    c_name;
    c_base;
    c_summary = !summary;
    c_cpp_constraints = !cpp;
    c_loc = Loc.merge start (loc p);
  }

let parse_param_def p ~start : Ast.param_def =
  let tp_name = expect_ident p in
  expect_punct p "{";
  let summary = ref None in
  let class_name = ref None in
  let parser_ = ref None in
  let printer = ref None in
  let rec go () =
    if accept_punct p "}" then ()
    else if accept_keyword p "Summary" then (
      summary := Some (expect_string p);
      go ())
    else if accept_keyword p "CppClassName" then (
      class_name := Some (expect_string p);
      go ())
    else if accept_keyword p "CppParser" then (
      parser_ := Some (expect_string p);
      go ())
    else if accept_keyword p "CppPrinter" then (
      printer := Some (expect_string p);
      go ())
    else fail p "expected Summary, CppClassName, CppParser, CppPrinter or '}'"
  in
  go ();
  let tp_class_name =
    match !class_name with
    | Some c -> c
    | None ->
        Diag.raise_error ~loc:start "TypeOrAttrParam '%s' needs a CppClassName"
          tp_name
  in
  {
    tp_name;
    tp_summary = !summary;
    tp_class_name;
    tp_parser = !parser_;
    tp_printer = !printer;
    tp_loc = Loc.merge start (loc p);
  }

let parse_item p : Ast.item =
  let start = loc p in
  if accept_keyword p "Type" then Ast.I_type (parse_type_def p ~start)
  else if accept_keyword p "Attribute" then Ast.I_attr (parse_attr_def p ~start)
  else if accept_keyword p "Operation" then Ast.I_op (parse_op_def p ~start)
  else if accept_keyword p "Alias" then Ast.I_alias (parse_alias_def p ~start)
  else if accept_keyword p "Enum" then Ast.I_enum (parse_enum_def p ~start)
  else if accept_keyword p "Constraint" then
    Ast.I_constraint (parse_constraint_def p ~start)
  else if accept_keyword p "TypeOrAttrParam" then
    Ast.I_param (parse_param_def p ~start)
  else
    fail p
      "expected a dialect item (Type, Attribute, Operation, Alias, Enum, \
       Constraint, TypeOrAttrParam)"

let item_keywords =
  [ "Type"; "Attribute"; "Operation"; "Alias"; "Enum"; "Constraint";
    "TypeOrAttrParam" ]

(* Panic-mode resynchronization after a failed item: skip tokens until
   something that can start the next item, a new [Dialect] (a missing
   brace), or end of file. Braces are tracked so sync keywords inside a
   nested body are not mistaken for item starts. A '}' at depth 0 is
   ambiguous — the broken item's own closer or the dialect's — so it is
   consumed tentatively: when an item keyword follows it belonged to the
   item ([`Item]); when [Dialect]/EOF follows it closed the dialect
   ([`Closed]). *)
let resync_item p =
  let rec go depth ~closed =
    match peek p with
    | Lexer.Eof -> if closed then `Closed else `Eof
    | Lexer.Punct "}" when depth = 0 ->
        ignore (advance p);
        go 0 ~closed:true
    | Lexer.Punct "}" ->
        ignore (advance p);
        go (depth - 1) ~closed
    | Lexer.Punct "{" ->
        ignore (advance p);
        go (depth + 1) ~closed
    | Lexer.Ident kw when depth = 0 && List.mem kw item_keywords -> `Item
    | Lexer.Ident "Dialect" when depth = 0 ->
        if closed then `Closed else `Dialect
    | _ ->
        ignore (advance p);
        go depth ~closed
  in
  go 0 ~closed:false

let parse_dialect_body p ~start : Ast.dialect =
  let d_name = expect_ident p in
  expect_punct p "{";
  let items = ref [] in
  let continue = ref true in
  while !continue do
    if accept_punct p "}" then continue := false
    else
      match peek p with
      | Lexer.Eof ->
          Diag.Engine.emit p.engine
            (Diag.error ~loc:(loc p) "unexpected end of file in dialect '%s'"
               d_name);
          continue := false
      | _ -> (
          match parse_item p with
          | item -> items := item :: !items
          | exception Diag.Error_exn d ->
              Diag.Engine.emit p.engine d;
              if Diag.Engine.limit_reached p.engine then continue := false
              else
                (match resync_item p with
                | `Item -> () (* next iteration parses it *)
                | `Closed | `Dialect | `Eof -> continue := false))
  done;
  { d_name; d_items = List.rev !items; d_loc = Loc.merge start (loc p) }

(** Parse one [Dialect name { ... }]. *)
let parse_dialect p : Ast.dialect =
  let start = loc p in
  if accept_keyword p "Dialect" then parse_dialect_body p ~start
  else fail p "expected 'Dialect'"

(* Skip to the next top-level [Dialect] keyword (or end of file) after a
   failed dialect, tracking braces so nested occurrences don't count. *)
let resync_dialect p =
  let rec go depth =
    match peek p with
    | Lexer.Eof -> ()
    | Lexer.Ident "Dialect" when depth = 0 -> ()
    | Lexer.Punct "{" ->
        ignore (advance p);
        go (depth + 1)
    | Lexer.Punct "}" ->
        ignore (advance p);
        go (max 0 (depth - 1))
    | _ ->
        ignore (advance p);
        go depth
  in
  go 0

(** Parse a whole IRDL file: a sequence of dialect definitions. Every
    error is emitted to the engine with resynchronization at item and
    dialect boundaries; the result is [Ok] with the dialects whose headers
    parsed (keeping the items that survived). *)
let parse_file ?file ?engine src : (Ast.dialect list, Diag.t) result =
  let engine, result = Diag.Engine.fail_fast engine in
  let dialects =
    match
      Diag.protect_any (fun () ->
          let p = create ?file ~engine src in
          let rec go acc =
            match peek p with
            | Lexer.Eof -> List.rev acc
            | _ when Diag.Engine.limit_reached engine -> List.rev acc
            | _ -> (
                let before = (loc p).start_pos.offset in
                match parse_dialect p with
                | d -> go (d :: acc)
                | exception Diag.Error_exn d ->
                    Diag.Engine.emit engine d;
                    resync_dialect p;
                    (* Belt and braces: never loop without consuming. *)
                    if (loc p).start_pos.offset = before && peek p <> Lexer.Eof
                    then ignore (advance p);
                    go acc)
          in
          go [])
    with
    | Ok ds -> ds
    | Error d ->
        Diag.Engine.emit engine d;
        []
  in
  result (Ok dialects)

(** Parse a source expected to contain exactly one dialect. *)
let parse_one ?file src : (Ast.dialect, Diag.t) result =
  match parse_file ?file src with
  | Error _ as e -> e
  | Ok [ d ] -> Ok d
  | Ok ds ->
      Diag.errorf "expected exactly one dialect definition, found %d"
        (List.length ds)

(** Parse a standalone constraint expression (used by tests and tooling). *)
let parse_constraint_string ?file src : (Ast.cexpr, Diag.t) result =
  let engine, result = Diag.Engine.fail_fast None in
  result
    (Diag.protect_any (fun () ->
         let p = create ?file ~engine src in
         let e = parse_cexpr p in
         match peek p with
         | Lexer.Eof -> e
         | _ -> fail p "trailing input after constraint"))
