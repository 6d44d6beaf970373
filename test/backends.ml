(* Run [f] with the process-global backend pinned to [backend], restoring
   the previous default afterwards, pass or fail: a test that names its
   backend must not depend on what other tests left in the global. *)
let with_backend backend f =
  let saved = Sasos.Hw.Packed_cache.default_backend () in
  Fun.protect
    ~finally:(fun () -> Sasos.Hw.Packed_cache.set_default_backend saved)
    (fun () ->
      Sasos.Hw.Packed_cache.set_default_backend backend;
      f ())
