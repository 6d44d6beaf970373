(** Physical page-frame allocator.

    Hands out frame numbers in a fixed order: frames that were freed come
    back first, most recently freed first; after them, frames never handed
    out, in ascending order from 0. Frames never handed out are an implicit
    range and freed frames sit on a stack that grows on demand, so
    {!create} costs O(1) whatever the frame count. When memory is exhausted
    the machines invoke page replacement (in the paging experiments) or the
    allocator refuses. *)

type t

val create : frames:int -> t
(** @raise Invalid_argument if [frames <= 0]. *)

val total : t -> int
val free_count : t -> int
val used_count : t -> int

val alloc : t -> int option
(** A free frame number, or [None] when memory is full. *)

val free : t -> int -> unit
(** Return a frame. @raise Invalid_argument if the frame is out of range or
    already free (double free). *)

val is_free : t -> int -> bool
(** @raise Invalid_argument if the frame is out of range. *)

val alloc_int : t -> int
(** Like {!alloc} but returns [-1] when memory is full; never allocates. *)
