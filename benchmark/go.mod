module distjoin/benchmark

go 1.22

require distjoin v0.0.0

replace distjoin => ../
