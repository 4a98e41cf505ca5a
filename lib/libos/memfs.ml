type file = { addr : int; len : int }

type t = {
  heap : Heap.t;
  store : addr:int -> bytes -> unit;
  load : addr:int -> len:int -> bytes;
  files : (string, file) Hashtbl.t;
}

let create ~heap ~store ~load = { heap; store; load; files = Hashtbl.create 32 }

let drop t path =
  match Hashtbl.find_opt t.files path with
  | None -> ()
  | Some f ->
      if f.len > 0 then Heap.free t.heap f.addr;
      Hashtbl.remove t.files path

let write_file t path data =
  let len = Bytes.length data in
  if len = 0 then begin
    drop t path;
    Hashtbl.replace t.files path { addr = 0; len = 0 };
    Ok ()
  end
  else
    match Heap.alloc t.heap len with
    | None -> Error "memfs: heap exhausted"
    | Some addr ->
        drop t path;
        t.store ~addr data;
        Hashtbl.replace t.files path { addr; len };
        Ok ()

let read_file t path =
  match Hashtbl.find_opt t.files path with
  | None -> None
  | Some { len = 0; _ } -> Some Bytes.empty
  | Some { addr; len } -> Some (t.load ~addr ~len)

let append_file t path data =
  match read_file t path with
  | None -> write_file t path data
  | Some existing -> write_file t path (Bytes.cat existing data)

let file_size t path = Option.map (fun f -> f.len) (Hashtbl.find_opt t.files path)
let exists t path = Hashtbl.mem t.files path

let remove t path =
  if exists t path then begin
    drop t path;
    true
  end
  else false

let list t = List.sort compare (List.of_seq (Seq.map fst (Hashtbl.to_seq t.files)))
