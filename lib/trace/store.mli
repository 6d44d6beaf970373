(** Trace serialization: a plain-text, line-oriented, diff-friendly format.

    Lines starting with ['#'] and blank lines are comments. *)

val save : string -> ?header:string -> Event.t list -> unit
(** Write a trace to a file; [header] lines are emitted as comments.
    @raise Sys_error on I/O failure. *)

val load : string -> (Event.t list, string) result
(** Read a trace; [Error] names the offending line of a malformed trace,
    or the path when the file cannot be opened or read. *)

val to_string : Event.t list -> string
val of_string : string -> (Event.t list, string) result
