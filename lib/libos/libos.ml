module Heap = Heap
module Spinlock = Spinlock
module Memfs = Memfs

type t = {
  mgr : Erebor.Sandbox.manager;
  sb : Erebor.Sandbox.t;
  clock : Hw.Cycles.clock;
  lheap : Heap.t;
  lfs : Memfs.t;
  lock : Spinlock.t;
  threads : int;
  heap_base : int;
  mutable services : int;
}

let fs t = t.lfs
let heap t = t.lheap
let heap_base t = t.heap_base
let thread_count t = t.threads
let service_calls t = t.services

let service t =
  t.services <- t.services + 1;
  Hw.Cycles.advance t.clock Hw.Cycles.Cost.libos_service

let boot ~mgr ~sb ~heap_bytes ~threads ~preload =
  if threads < 1 then Error "libos: need at least one thread"
  else
    match Erebor.Sandbox.declare_confined mgr sb ~len:heap_bytes with
    | Error e -> Error ("libos heap: " ^ e)
    | Ok heap_base -> (
        let clock = (Erebor.Sandbox.manager_kernel mgr).Kernel.clock in
        let lheap = Heap.create ~base:heap_base ~len:heap_bytes in
        let store ~addr data = Erebor.Sandbox.write_sandbox_bytes mgr sb ~addr data in
        let load ~addr ~len = Erebor.Sandbox.read_sandbox_bytes mgr sb ~addr ~len in
        let lfs = Memfs.create ~heap:lheap ~store ~load in
        (* All worker threads exist before any client data arrives. *)
        for i = 2 to threads do
          ignore (Erebor.Sandbox.spawn_thread mgr sb ~name:(Printf.sprintf "worker-%d" i))
        done;
        let t =
          { mgr; sb; clock; lheap; lfs; lock = Spinlock.create ~clock; threads;
            heap_base; services = 0 }
        in
        (* Preload required files (libraries, configs) into the mountpoint. *)
        let rec load_all = function
          | [] -> Ok t
          | (path, data) :: rest -> (
              service t;
              match Memfs.write_file lfs path data with
              | Ok () -> load_all rest
              | Error e -> Error ("libos preload: " ^ e))
        in
        load_all preload)

let runtime_service t = service t

let malloc t n =
  service t;
  match Heap.alloc t.lheap n with
  | Some addr -> Ok addr
  | None -> Error "libos: heap exhausted"

let free t addr =
  service t;
  Heap.free t.lheap addr

let read_file t path =
  service t;
  match Memfs.read_file t.lfs path with
  | Some data -> Ok data
  | None -> Error ("libos: no such file " ^ path)

let write_file t path data =
  service t;
  Memfs.write_file t.lfs path data

let store t ~addr data = Erebor.Sandbox.write_sandbox_bytes t.mgr t.sb ~addr data

let with_lock t f = Spinlock.with_lock t.lock f

let parallel_compute t ~total_cycles ~sync_ops =
  Hw.Cycles.advance t.clock (total_cycles / t.threads);
  for _ = 1 to sync_ops do
    Spinlock.with_lock t.lock (fun () -> ())
  done

let recv_input t =
  service t;
  match
    Erebor.Sandbox.handle_syscall t.mgr t.sb
      (Kernel.Syscall.Ioctl
         { fd = Erebor.Sandbox.channel_fd t.sb; request = 1; arg = Bytes.empty })
  with
  | Kernel.Syscall.Rbytes b -> Ok b
  | Kernel.Syscall.Rerr e -> Error e
  | Kernel.Syscall.Rint _ | Kernel.Syscall.Raddr _ | Kernel.Syscall.Rok ->
      Error "libos: unexpected input ioctl result"

let send_output t data =
  service t;
  match
    Erebor.Sandbox.handle_syscall t.mgr t.sb
      (Kernel.Syscall.Ioctl { fd = Erebor.Sandbox.channel_fd t.sb; request = 2; arg = data })
  with
  | Kernel.Syscall.Rok -> Ok ()
  | Kernel.Syscall.Rerr e -> Error e
  | Kernel.Syscall.Rint _ | Kernel.Syscall.Raddr _ | Kernel.Syscall.Rbytes _ ->
      Error "libos: unexpected output ioctl result"

(* ------------------------------------------------------------------ *)
(* POSIX surface                                                       *)
(* ------------------------------------------------------------------ *)

module Posix = struct
  type errno = EBADF | ENOENT | EEXIST | EINVAL | ENOSPC | EACCES

  let errno_to_string = function
    | EBADF -> "EBADF"
    | ENOENT -> "ENOENT"
    | EEXIST -> "EEXIST"
    | EINVAL -> "EINVAL"
    | ENOSPC -> "ENOSPC"
    | EACCES -> "EACCES"

  type flag = O_RDONLY | O_RDWR | O_CREAT | O_TRUNC | O_APPEND | O_EXCL

  type open_file = { path : string; mutable pos : int; writable : bool; append : bool }

  type dir = { libos : t; fds : (int, open_file) Hashtbl.t; mutable next_fd : int }

  let attach libos = { libos; fds = Hashtbl.create 16; next_fd = 3 }

  let openf d path flags =
    runtime_service d.libos;
    let exists = Memfs.exists d.libos.lfs path in
    let creat = List.mem O_CREAT flags in
    if (not exists) && not creat then Error ENOENT
    else if exists && creat && List.mem O_EXCL flags then Error EEXIST
    else begin
      (if (not exists) || List.mem O_TRUNC flags then
         match Memfs.write_file d.libos.lfs path Bytes.empty with
         | Ok () -> ()
         | Error _ -> ());
      let file =
        {
          path;
          pos = 0;
          writable = List.mem O_RDWR flags || creat || List.mem O_APPEND flags;
          append = List.mem O_APPEND flags;
        }
      in
      let fd = d.next_fd in
      d.next_fd <- fd + 1;
      Hashtbl.replace d.fds fd file;
      Ok fd
    end

  let lookup d fd =
    match Hashtbl.find_opt d.fds fd with Some f -> Ok f | None -> Error EBADF

  let read d fd len =
    runtime_service d.libos;
    if len < 0 then Error EINVAL
    else
      Result.bind (lookup d fd) (fun f ->
          match Memfs.read_file d.libos.lfs f.path with
          | None -> Error ENOENT
          | Some data ->
              let avail = max 0 (Bytes.length data - f.pos) in
              let n = min len avail in
              let out = Bytes.sub data f.pos n in
              f.pos <- f.pos + n;
              Ok out)

  let write d fd buf =
    runtime_service d.libos;
    Result.bind (lookup d fd) (fun f ->
        if not f.writable then Error EACCES
        else
          match Memfs.read_file d.libos.lfs f.path with
          | None -> Error ENOENT
          | Some data ->
              let at = if f.append then Bytes.length data else f.pos in
              let new_len = max (Bytes.length data) (at + Bytes.length buf) in
              let merged = Bytes.make new_len '\000' in
              Bytes.blit data 0 merged 0 (Bytes.length data);
              Bytes.blit buf 0 merged at (Bytes.length buf);
              (match Memfs.write_file d.libos.lfs f.path merged with
              | Ok () ->
                  f.pos <- at + Bytes.length buf;
                  Ok (Bytes.length buf)
              | Error _ -> Error ENOSPC))

  type whence = SEEK_SET | SEEK_CUR | SEEK_END

  let lseek d fd offset whence =
    runtime_service d.libos;
    Result.bind (lookup d fd) (fun f ->
        let size =
          Option.value ~default:0 (Memfs.file_size d.libos.lfs f.path)
        in
        let target =
          match whence with
          | SEEK_SET -> offset
          | SEEK_CUR -> f.pos + offset
          | SEEK_END -> size + offset
        in
        if target < 0 then Error EINVAL
        else begin
          f.pos <- target;
          Ok target
        end)

  let close d fd =
    runtime_service d.libos;
    if Hashtbl.mem d.fds fd then begin
      Hashtbl.remove d.fds fd;
      Ok ()
    end
    else Error EBADF

  let unlink d path =
    runtime_service d.libos;
    if Memfs.remove d.libos.lfs path then Ok () else Error ENOENT

  let rename d from_path to_path =
    runtime_service d.libos;
    match Memfs.read_file d.libos.lfs from_path with
    | None -> Error ENOENT
    | Some data -> (
        match Memfs.write_file d.libos.lfs to_path data with
        | Ok () ->
            ignore (Memfs.remove d.libos.lfs from_path);
            Ok ()
        | Error _ -> Error ENOSPC)

  let stat_size d path =
    runtime_service d.libos;
    match Memfs.file_size d.libos.lfs path with
    | Some n -> Ok n
    | None -> Error ENOENT

  let dup d fd =
    runtime_service d.libos;
    Result.bind (lookup d fd) (fun f ->
        let fd' = d.next_fd in
        d.next_fd <- fd' + 1;
        Hashtbl.replace d.fds fd' { f with pos = f.pos };
        Ok fd')

  let open_fds d = Hashtbl.length d.fds
end
