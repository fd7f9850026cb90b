(* The benchmark's speed yardstick.

     calib N

   does a fixed amount of compiler-like work on N generated lines: it
   formats them into a text, splits the text into tokens, interns every
   token in a hash table, and prints the tokens back into a buffer. It
   prints a checksum of the result. It links only the OCaml standard
   library, so a change to the repository's code does not change its cost;
   run.py times it between the program's invocations to track the speed of
   the machine (see README.md, "Reference seconds"). *)

let () =
  let n =
    match Sys.argv with
    | [| _; n |] -> int_of_string n
    | _ ->
        prerr_endline "usage: calib N";
        exit 2
  in
  let b = Buffer.create (n * 48) in
  for i = 0 to n - 1 do
    Printf.bprintf b "%%%d = \"d%d.op%d\"(%%%d) {a = %d : i32} : (i32) -> i32\n"
      i (i mod 28) (i mod 37) (i / 2) (i * 7919 mod 1000)
  done;
  let text = Buffer.contents b in
  let interned = Hashtbl.create 4096 in
  let intern s =
    match Hashtbl.find_opt interned s with
    | Some s -> s
    | None ->
        Hashtbl.add interned s s;
        s
  in
  let tokens = ref [] in
  let len = String.length text in
  let i = ref 0 in
  while !i < len do
    let j = ref !i in
    while !j < len && text.[!j] <> ' ' && text.[!j] <> '\n' do
      incr j
    done;
    if !j > !i then tokens := intern (String.sub text !i (!j - !i)) :: !tokens;
    i := !j + 1
  done;
  let out = Buffer.create len in
  List.iter
    (fun t ->
      Buffer.add_string out t;
      Buffer.add_char out ' ')
    (List.rev !tokens);
  Printf.printf "%d\n" (Buffer.length out + Hashtbl.length interned)
