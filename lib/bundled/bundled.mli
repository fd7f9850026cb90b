(** The bundled dialects as dialect packs, encoded at build time.

    Each value is the [Bytecode.Write.dialects_to_string] encoding of the
    dialects that the IRDL text frontend resolves from the bundled source,
    so loading it skips the text parse and resolve; lifting and
    registration happen at runtime ([Frontend.load_dialects] on
    [Source.Binary]). The text in {!Irdl_dialects} stays the reference:
    the test suite holds these packs byte-equal to a fresh encoding. *)

val corpus : string
(** The 28 dialects of [Irdl_dialects.Corpus.all], in that order. *)

val cmath : string
(** The paper's [cmath] dialect ([Irdl_dialects.Cmath.source]). Its
    native (IRDL-C++) hooks are not in the pack: register them with
    [Irdl_dialects.Cmath.register_hooks] before loading it. *)
