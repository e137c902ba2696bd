(** Output normalization (paper RQ5/RQ6).

    CompDiff targets programs with deterministic output; programs that
    stamp timestamps or random cookies into otherwise deterministic
    output become comparable after stripping those fields — exactly what
    the paper does for wireshark's "[10:44:23.405830 \[Epan WARNING\]]"
    lines. Filters are plain [string -> string] functions and compose. *)

type filter = string -> string

val identity : filter

val compose : filter list -> filter
(** Left-to-right composition. *)

val strip_timestamps : filter
(** Replace [HH:MM:SS(.uuu...)] shapes with a fixed token. *)

val strip_hex_addresses : filter
(** Replace [0x...] hexadecimal addresses with a fixed token. Pointer
    values are implementation-defined; when the presence of an address,
    not its value, is the intended output, this makes runs comparable. *)

val strip_lines_containing : string -> filter
(** Drop whole lines containing the marker. *)
