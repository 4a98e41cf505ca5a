type section = {
  name : string;
  vaddr : int;
  executable : bool;
  writable : bool;
  data : bytes;
}

type t = { entry : int; sections : section list }

let magic = "EREB1"

let put_u32 buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let put_u64 buf v =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let serialize t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  put_u64 buf t.entry;
  put_u32 buf (List.length t.sections);
  List.iter
    (fun s ->
      put_u32 buf (String.length s.name);
      Buffer.add_string buf s.name;
      put_u64 buf s.vaddr;
      Buffer.add_char buf (if s.executable then '\001' else '\000');
      Buffer.add_char buf (if s.writable then '\001' else '\000');
      put_u32 buf (Bytes.length s.data);
      Buffer.add_bytes buf s.data)
    t.sections;
  Buffer.to_bytes buf

exception Bad of string

let parse b =
  let pos = ref 0 in
  let need n =
    if !pos + n > Bytes.length b then raise (Bad "truncated image");
    let p = !pos in
    pos := !pos + n;
    p
  in
  let get_u32 () =
    let p = need 4 in
    let v = ref 0 in
    for i = 3 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.get b (p + i))
    done;
    !v
  in
  let get_u64 () =
    let p = need 8 in
    let v = ref 0 in
    for i = 7 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.get b (p + i))
    done;
    !v
  in
  let get_str n =
    let p = need n in
    Bytes.sub_string b p n
  in
  let get_byte () =
    let p = need 1 in
    Char.code (Bytes.get b p)
  in
  try
    if get_str (String.length magic) <> magic then raise (Bad "bad magic");
    let entry = get_u64 () in
    let count = get_u32 () in
    if count > 1024 then raise (Bad "unreasonable section count");
    let sections =
      List.init count (fun _ ->
          let name_len = get_u32 () in
          if name_len > 255 then raise (Bad "section name too long");
          let name = get_str name_len in
          String.iter
            (fun c -> if Char.code c < 0x20 || Char.code c > 0x7e then raise (Bad "bad section name"))
            name;
          let vaddr = get_u64 () in
          let executable = get_byte () = 1 in
          let writable = get_byte () = 1 in
          let len = get_u32 () in
          let p = need len in
          { name; vaddr; executable; writable; data = Bytes.sub b p len })
    in
    if !pos <> Bytes.length b then raise (Bad "trailing bytes");
    (* Reject overlapping load ranges. *)
    let ranges =
      List.sort compare
        (List.filter_map
           (fun s ->
             if Bytes.length s.data = 0 then None
             else Some (s.vaddr, s.vaddr + Bytes.length s.data))
           sections)
    in
    let rec overlaps = function
      | (_, e1) :: ((s2, _) :: _ as rest) -> if e1 > s2 then true else overlaps rest
      | _ -> false
    in
    if overlaps ranges then raise (Bad "overlapping sections");
    Ok { entry; sections }
  with Bad msg -> Error msg

let executable_sections t = List.filter (fun s -> s.executable) t.sections
let find_section t name = List.find_opt (fun s -> s.name = name) t.sections
