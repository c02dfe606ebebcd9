module github.com/minatoloader/minato/bench

go 1.23

require github.com/minatoloader/minato v0.0.0

replace github.com/minatoloader/minato => ../
