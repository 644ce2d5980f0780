module partialdsm/benchmark

go 1.21

require partialdsm v0.0.0

replace partialdsm => ../
