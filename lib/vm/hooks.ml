(* Sanitizer instrumentation points.

   The VM invokes these callbacks at the events real sanitizers intercept.
   A hook stops the program by raising {!Report}; the default hooks do
   nothing, which is the plain uninstrumented binary. *)

exception Report of string
(** Raised by a hook to terminate the run with a sanitizer report. *)

type access_kind = Aread | Awrite

type t = {
  on_access : Mem.t -> Value.ptr -> access_kind -> unit;
      (** every load/store, including those inside builtins like memcpy *)
  on_free : Mem.t -> Value.ptr -> [ `Ok | `Double | `Invalid | `Null ] -> unit;
      (** after the allocator classified the free *)
  on_signed_arith : Cdcompiler.Ir.ibin -> Cdcompiler.Ir.width -> int64 -> int64 -> unit;
      (** source-level signed arithmetic, before the operation executes *)
  on_branch : taint:bool -> unit;
      (** conditional branch; [taint] says the condition is uninitialized *)
  on_deref_taint : taint:bool -> unit;
      (** pointer dereference; [taint] says the pointer value is uninitialized *)
}

let none =
  {
    on_access = (fun _ _ _ -> ());
    on_free = (fun _ _ _ -> ());
    on_signed_arith = (fun _ _ _ _ -> ());
    on_branch = (fun ~taint:_ -> ());
    on_deref_taint = (fun ~taint:_ -> ());
  }
