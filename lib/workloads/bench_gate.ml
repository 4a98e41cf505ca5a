(* The JSON decoder of the bench record (BENCH_sim.json) and of the host
   benchmark's reference, hand-rolled because the repo takes no external
   dependencies: objects, arrays, strings, numbers, booleans, null.

   It is a compilation unit of its own so that the host benchmark (perf/)
   links the decoder alone: the gate's checks live in [Bench_check], which
   nothing under perf/ names, so they stay out of perf/main.exe and a
   change to them cannot move the code it measures. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Error of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some d when d = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word value =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        value
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let code = ref 0 in
              for i = !pos to !pos + 3 do
                let digit =
                  match s.[i] with
                  | '0' .. '9' as c -> Char.code c - Char.code '0'
                  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                  | _ -> fail "\\u escape needs 4 hex digits"
                in
                code := (!code * 16) + digit
              done;
              let code = !code in
              pos := !pos + 4;
              (* Latin-1 subset is enough for our own files. *)
              Buffer.add_char buf
                (if code < 256 then Char.chr code else '?')
          | _ -> fail "bad escape");
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && num_char s.[!pos] do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    (* Nesting is bounded so a hostile document cannot exhaust the stack. *)
    let rec parse_value depth =
      if depth > 256 then fail "nesting too deep";
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((key, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((key, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elements acc =
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elements []
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    match parse_value 0 with
    | v ->
        skip_ws ();
        if !pos <> n then Result.Error "trailing garbage after JSON value"
        else Result.Ok v
    | exception Error msg -> Result.Error msg

  let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
  let to_float = function Some (Num f) -> Some f | _ -> None
  let to_int j = Option.map int_of_float (to_float j)
  let to_str = function Some (Str s) -> Some s | _ -> None
  let to_arr = function Some (Arr l) -> l | _ -> []
end
