(** Length-framed wire protocol of the resident service.

    One request frame:
    {v
    "IRQ1"  u32be hlen  u32be plen  header[hlen]  payload[plen]
    v}
    One response frame:
    {v
    "IRS1"  u32be hlen  u32be dlen  u32be olen
    header[hlen]  diagnostics[dlen]  output[olen]
    v}

    Headers are [key=value\n] lines (UTF-8, no '\n' in values); unknown
    keys are ignored so the protocol can grow. Diagnostics are the
    pre-rendered text a one-shot [irdl-opt] run would have written to
    stderr; output is the printed module, the bytecode blob, or empty.

    Framing is deliberately dumb: fixed magic, explicit lengths, no
    compression, no negotiation. A reader can always either resynchronize
    (skip exactly the declared lengths) or reject the stream as corrupt
    ({!Corrupt} — there is nothing to resynchronize on after a bad
    magic). *)

val request_magic : string
val response_magic : string

val max_header_bytes : int
(** Hard cap (64 KiB) on a frame's header section; a larger declared
    header is a protocol error, not a resource question. *)

val get_u32 : string -> int -> int
(** The big-endian u32 at an offset (the frames' length fields). *)

val encode_header : (string * string) list -> string
(** @raise Invalid_argument when a key or value contains ['\n'] or a key
    contains ['=']. *)

val decode_header : string -> (string * string) list
(** Malformed lines (no '=') are dropped; later duplicates win in
    {!header_get}. *)

val header_get : (string * string) list -> string -> string option

val encode_request : header:(string * string) list -> payload:string -> string

val encode_response :
  header:(string * string) list -> diags:string -> output:string -> string

val decode_response :
  string -> ((string * string) list * string * string, string) result
(** Decode one complete response frame (client side):
    [(header, diags, output)], or [Error] describing the corruption. *)

(** Incremental request-frame reader with bounded buffering: payloads
    larger than [max_payload] are consumed and dropped chunk-by-chunk as
    they arrive — never accumulated — and surface as a {!Frame} with
    [oversized = true] and an empty payload, so the server can still
    answer the request (by id) with a [resource_exhausted] response. *)
type reader

type event =
  | Frame of {
      header : (string * string) list;
      payload : string;
      oversized : bool;
    }
  | Corrupt of string
      (** Unrecoverable protocol error (bad magic, header over
          {!max_header_bytes}); the reader consumes nothing further. *)

val reader : ?max_payload:int -> unit -> reader
(** [max_payload] is the discard threshold; 0 (default) buffers any
    declared payload length. *)

val feed_bytes : reader -> bytes -> off:int -> len:int -> unit
(** Append [len] received bytes of [b] from [off]. The reader copies them
    into one growable buffer (doubling, with consumed bytes dropped first),
    so receiving a frame costs time and allocation linear in its size, and
    its payload is copied out once. *)

val feed : reader -> string -> unit
(** [feed_bytes] over a whole string. *)

val poll : reader -> event option
(** The next complete event, if any. After {!Corrupt} is returned once,
    every subsequent call returns it again. *)

val buffered : reader -> int
(** Bytes currently buffered (excludes discarded payload bytes). *)
