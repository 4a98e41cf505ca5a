type state = Runnable | Blocked | Dead

type kind = Normal | Sandboxed of int

type t = {
  tid : int;
  pid_result : Syscall.result;
  name : string;
  kind : kind;
  mutable state : state;
  mutable root_pfn : int;
  vmas : Vma.t;
  mutable brk : int;
  mutable saved_regs : int64 array option;
  mutable cpu_cycles : int;
  mutable exit_code : int option;
  fds : (int, string) Hashtbl.t;
  mutable next_fd : int;
}

let make ~tid ~name ~kind ~root_pfn ~vmas =
  {
    tid;
    pid_result = Syscall.Rint tid;
    name;
    kind;
    state = Runnable;
    root_pfn;
    vmas;
    brk = Layout.user_base;
    saved_regs = None;
    cpu_cycles = 0;
    exit_code = None;
    fds = Hashtbl.create 8;
    next_fd = 3; (* 0,1,2 conventionally reserved *)
  }

let alloc_fd t path =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.replace t.fds fd path;
  fd

let path_of_fd t fd = Hashtbl.find t.fds fd

let close_fd t fd =
  if Hashtbl.mem t.fds fd then begin
    Hashtbl.remove t.fds fd;
    true
  end
  else false

let kill t ~exit_code =
  t.state <- Dead;
  t.exit_code <- Some exit_code
