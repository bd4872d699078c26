package engine

import "repro/internal/ast"

// numericLiteral is the name the literal-form tests know the executors'
// number reader by.
var numericLiteral = ast.NumValue
