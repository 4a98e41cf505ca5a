(* Tamper-evident audit log: every monitor security decision becomes one
   record in an HMAC-SHA256 hash chain. Record [i]'s MAC covers the previous
   record's MAC plus a canonical encoding of its own body, so flipping a
   byte, dropping a record or swapping two records breaks every MAC from the
   damage point onward. A mandatory [finalize] close record carries the
   record count, which is what makes tail truncation detectable: a chain
   without a close record, or whose close record disagrees with the number
   of records present, does not verify. *)

type verdict = Allow | Deny | Kill | Info

let verdict_name = function
  | Allow -> "allow"
  | Deny -> "deny"
  | Kill -> "kill"
  | Info -> "info"

let verdict_of_name = function
  | "allow" -> Some Allow
  | "deny" -> Some Deny
  | "kill" -> Some Kill
  | "info" -> Some Info
  | _ -> None

type record = {
  seq : int;
  ts : int;                     (* virtual cycles at the decision point *)
  category : string;            (* "scan", "privop.cr", "mmu", "policy", ... *)
  verdict : verdict;
  detail : string;
  mac : string;                 (* lowercase hex, 64 chars *)
}

type t = {
  key : bytes;
  mutable records : record list; (* newest first *)
  mutable count : int;
  mutable last_mac : bytes;      (* raw 32-byte chain head *)
  mutable finalized : bool;
}

let chain_label = "erebor-audit-v1"
let close_category = "audit.close"

(* Canonical record body: unambiguous because the variable-length [detail]
   is length-prefixed and comes last. The MAC chain covers this encoding,
   not the JSON rendering, so the verifier recomputes it from parsed
   fields. *)
let body ~seq ~ts ~category ~verdict ~detail =
  Printf.sprintf "%d|%d|%s|%s|%d|%s" seq ts category (verdict_name verdict)
    (String.length detail) detail

let create ~key =
  {
    key;
    records = [];
    count = 0;
    last_mac = Crypto.Hmac.mac_string ~key chain_label;
    finalized = false;
  }

let append_raw t ~ts ~category ~verdict ~detail =
  let seq = t.count in
  let b = body ~seq ~ts ~category ~verdict ~detail in
  let mac =
    Crypto.Hmac.mac_string ~key:t.key (Bytes.to_string t.last_mac ^ b)
  in
  t.last_mac <- mac;
  t.count <- seq + 1;
  t.records <-
    { seq; ts; category; verdict; detail; mac = Crypto.Sha256.hex mac }
    :: t.records

let append t ~ts ~category ~verdict ~detail =
  if t.finalized then invalid_arg "Audit.append: log already finalized";
  append_raw t ~ts ~category ~verdict ~detail

let finalize t ~now =
  if not t.finalized then begin
    let n = t.count in
    append_raw t ~ts:now ~category:close_category ~verdict:Info
      ~detail:(Printf.sprintf "count=%d" n);
    t.finalized <- true
  end

let finalized t = t.finalized

(* Decision records only — the close record is chain framing, not a
   decision. *)
let length t = if t.finalized then t.count - 1 else t.count
let records t = List.rev t.records

(* The library's one JSON string escaper (every exporter's names and
   labels go through it); [unescape] below is its inverse for the
   verifier. *)
let escape_json s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* [None] on a [\u] escape without four hex digits: a line [escape_json]
   cannot have written reads as malformed rather than raising. *)
let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> raise Exit
  in
  try
    while !i < n do
      (match s.[!i] with
      | '\\' when !i + 1 < n -> (
          incr i;
          match s.[!i] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              if !i + 4 >= n then raise Exit;
              let code =
                (hex s.[!i + 1] lsl 12) lor (hex s.[!i + 2] lsl 8)
                lor (hex s.[!i + 3] lsl 4) lor hex s.[!i + 4]
              in
              Buffer.add_char buf (Char.chr (code land 0xff));
              i := !i + 4
          | c -> Buffer.add_char buf c)
      | c -> Buffer.add_char buf c);
      incr i
    done;
    Some (Buffer.contents buf)
  with Exit -> None

let record_line r =
  Printf.sprintf
    {|{"seq":%d,"ts":%d,"category":"%s","verdict":"%s","detail":"%s","mac":"%s"}|}
    r.seq r.ts (escape_json r.category) (verdict_name r.verdict)
    (escape_json r.detail)
    r.mac

let to_string t =
  let buf = Buffer.create (64 * (t.count + 1)) in
  List.iter
    (fun r ->
      Buffer.add_string buf (record_line r);
      Buffer.add_char buf '\n')
    (records t);
  Buffer.contents buf

(* The chain as it stands, re-walked under [key]: each record's MAC is
   recomputed as [verify_string] does, without asking a live chain for
   the close record it has not written yet. *)
let verify_chain ~key t =
  let rec go chain = function
    | [] -> Ok (length t)
    | r :: rest ->
        let mac =
          Crypto.Hmac.mac_string ~key
            (Bytes.to_string chain
            ^ body ~seq:r.seq ~ts:r.ts ~category:r.category ~verdict:r.verdict
                ~detail:r.detail)
        in
        if Crypto.Sha256.hex mac = r.mac then go mac rest
        else Error (Printf.sprintf "record %d: MAC mismatch" r.seq)
  in
  go (Crypto.Hmac.mac_string ~key chain_label) (records t)

(* --- Offline verifier ------------------------------------------------- *)

(* Minimal field extraction for the exact JSONL shape [record_line] writes.
   The verifier is deliberately strict: a line that does not parse is a
   verification failure, not a skip. *)
let parse_line ln =
  let field_string key =
    let pat = Printf.sprintf "\"%s\":\"" key in
    match
      (* find pat in ln *)
      let pl = String.length pat and ll = String.length ln in
      let rec find i =
        if i + pl > ll then None
        else if String.sub ln i pl = pat then Some (i + pl)
        else find (i + 1)
      in
      find 0
    with
    | None -> None
    | Some start ->
        (* scan to the closing unescaped quote *)
        let buf = Buffer.create 16 in
        let rec go i =
          if i >= String.length ln then None
          else
            match ln.[i] with
            | '"' -> Some (Buffer.contents buf)
            | '\\' when i + 1 < String.length ln ->
                Buffer.add_char buf '\\';
                Buffer.add_char buf ln.[i + 1];
                go (i + 2)
            | c ->
                Buffer.add_char buf c;
                go (i + 1)
        in
        go start
  in
  let field_int key =
    let pat = Printf.sprintf "\"%s\":" key in
    let pl = String.length pat and ll = String.length ln in
    let rec find i =
      if i + pl > ll then None
      else if String.sub ln i pl = pat then Some (i + pl)
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some start ->
        let stop = ref start in
        while
          !stop < ll && (ln.[!stop] = '-' || (ln.[!stop] >= '0' && ln.[!stop] <= '9'))
        do
          incr stop
        done;
        if !stop = start then None
        else int_of_string_opt (String.sub ln start (!stop - start))
  in
  match
    ( field_int "seq",
      field_int "ts",
      field_string "category",
      field_string "verdict",
      field_string "detail",
      field_string "mac" )
  with
  | Some seq, Some ts, Some category, Some verdict, Some detail, Some mac -> (
      match (verdict_of_name verdict, unescape category, unescape detail) with
      | Some v, Some category, Some detail ->
          Some { seq; ts; category; verdict = v; detail; mac }
      | _ -> None)
  | _ -> None

let verify_string ~key s =
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  in
  let n_lines = List.length lines in
  if n_lines = 0 then Error "empty log: no records and no close record"
  else begin
    let chain = ref (Crypto.Hmac.mac_string ~key chain_label) in
    let err = ref None in
    let fail msg = if !err = None then err := Some msg in
    List.iteri
      (fun i ln ->
        if !err = None then
          match parse_line ln with
          | None -> fail (Printf.sprintf "record %d: malformed line" i)
          | Some r ->
              if r.seq <> i then
                fail
                  (Printf.sprintf
                     "record %d: sequence mismatch (found seq=%d): record \
                      dropped or reordered"
                     i r.seq)
              else begin
                let b =
                  body ~seq:r.seq ~ts:r.ts ~category:r.category
                    ~verdict:r.verdict ~detail:r.detail
                in
                let expect =
                  Crypto.Hmac.mac_string ~key (Bytes.to_string !chain ^ b)
                in
                if Crypto.Sha256.hex expect <> r.mac then
                  fail
                    (Printf.sprintf
                       "record %d: MAC mismatch: record tampered, dropped or \
                        reordered"
                       i)
                else begin
                  chain := expect;
                  if i = n_lines - 1 then
                    if r.category <> close_category then
                      fail "truncated: last record is not the close record"
                    else if
                      r.detail <> Printf.sprintf "count=%d" (n_lines - 1)
                    then
                      fail
                        (Printf.sprintf
                           "close record count disagrees with %d records \
                            present: log truncated"
                           (n_lines - 1))
                end
              end)
      lines;
    match !err with Some m -> Error m | None -> Ok (n_lines - 1)
  end
