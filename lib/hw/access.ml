type ctx = {
  mutable user_mode : bool;
  mutable wp : bool;
  mutable smep : bool;
  mutable smap : bool;
  mutable pks : bool;
  mutable ac : bool;
  mutable pkrs : int;
}

type translation = { user : bool; writable : bool; nx : bool; pkey : int }

(* A toplevel function, not a closure over the access: the permitted path
   builds nothing. *)
let deny ctx ~kind ~addr ~pkey =
  Error
    (Fault.Page_fault
       { Fault.addr; kind; user = ctx.user_mode; present = true; pkey_violation = pkey })

(* The hot-path entry point: permission bits passed unboxed so {!Cpu} can
   check a TLB hit without building a [translation] record. The [Ok ()]
   path allocates nothing. *)
let check_bits ctx ~kind ~addr ~user ~writable ~nx ~pkey =
  match kind with
  | Fault.Execute ->
      if nx then deny ctx ~kind ~addr ~pkey:false
      else if ctx.user_mode then
        if user then Ok () else deny ctx ~kind ~addr ~pkey:false
      else if user && ctx.smep then
        (* SMEP: no kernel exec of user pages *)
        deny ctx ~kind ~addr ~pkey:false
      else Ok ()
  | Fault.Read | Fault.Write -> (
      let write = kind = Fault.Write in
      if ctx.user_mode then
        if not user then deny ctx ~kind ~addr ~pkey:false
        else if write && not writable then deny ctx ~kind ~addr ~pkey:false
        else Ok ()
      else if user then
        (* Supervisor touching a user page: SMAP unless AC is set. *)
        if ctx.smap && not ctx.ac then deny ctx ~kind ~addr ~pkey:false
        else if write && ctx.wp && not writable then deny ctx ~kind ~addr ~pkey:false
        else Ok ()
      else begin
        (* Supervisor page: PKS applies to data accesses. *)
        let pks_ok =
          (not ctx.pks) || Pks.permits_bits ~pkrs:ctx.pkrs ~key:pkey ~write:false
        in
        if not pks_ok then deny ctx ~kind ~addr ~pkey:true
        else if write then
          if
            ctx.pks && ctx.wp
            && not (Pks.permits_bits ~pkrs:ctx.pkrs ~key:pkey ~write:true)
          then deny ctx ~kind ~addr ~pkey:true
          else if ctx.wp && not writable then deny ctx ~kind ~addr ~pkey:false
          else Ok ()
        else Ok ()
      end)

let check ctx ~kind ~addr tr =
  check_bits ctx ~kind ~addr ~user:tr.user ~writable:tr.writable ~nx:tr.nx
    ~pkey:tr.pkey
