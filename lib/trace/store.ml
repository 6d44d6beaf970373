let to_string events =
  String.concat "\n" (List.map Event.to_line events) ^ "\n"

let of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then go acc (lineno + 1) rest
        else begin
          match Event.of_line trimmed with
          | Ok e -> go (e :: acc) (lineno + 1) rest
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
        end
  in
  go [] 1 lines

let save path ?header events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      (match header with
      | Some h ->
          String.split_on_char '\n' h
          |> List.iter (fun l -> output_string oc ("# " ^ l ^ "\n"))
      | None -> ());
      output_string oc (to_string events))

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg (* "<path>: <reason>" *)
  | ic -> (
      match
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | exception Sys_error msg -> Error (path ^ ": " ^ msg)
      | exception End_of_file -> Error (path ^ ": truncated while reading")
      | s -> of_string s)
