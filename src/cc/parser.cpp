#include "cc/parser.h"

#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace rvss::cc {
namespace {

NodePtr MakeNode(NodeKind kind, SourcePos pos) {
  auto node = std::make_unique<Node>(kind);
  node->pos = pos;
  return node;
}

/// Usual arithmetic conversions.
TypePtr CommonArithmeticType(const TypePtr& a, const TypePtr& b) {
  if (a->kind == TypeKind::kDouble || b->kind == TypeKind::kDouble) {
    return DoubleType();
  }
  if (a->kind == TypeKind::kFloat || b->kind == TypeKind::kFloat) {
    return FloatType();
  }
  if (a->kind == TypeKind::kUInt || b->kind == TypeKind::kUInt) {
    return UIntType();
  }
  return IntType();
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<TranslationUnit> Run() {
    EnterScope();
    while (!At(TokenKind::kEof)) {
      RVSS_RETURN_IF_ERROR(TopLevel());
    }
    LeaveScope();
    return std::move(unit_);
  }

 private:
  // ---- token helpers ------------------------------------------------------
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek(std::size_t ahead = 1) const {
    return tokens_[std::min(pos_ + ahead, tokens_.size() - 1)];
  }
  bool At(TokenKind kind) const { return Cur().kind == kind; }
  bool AtPunct(std::string_view text) const {
    return Cur().kind == TokenKind::kPunct && Cur().text == text;
  }
  bool AtKeyword(std::string_view text) const {
    return Cur().kind == TokenKind::kKeyword && Cur().text == text;
  }
  Token Take() { return tokens_[pos_++]; }
  bool ConsumePunct(std::string_view text) {
    if (AtPunct(text)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeKeyword(std::string_view text) {
    if (AtKeyword(text)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Error Fail(std::string message) const {
    return Error{ErrorKind::kParse, std::move(message), Cur().pos};
  }
  Error FailSem(std::string message, SourcePos pos) const {
    return Error{ErrorKind::kSemantic, std::move(message), pos};
  }
  Status ExpectPunct(std::string_view text) {
    if (!ConsumePunct(text)) {
      return Fail("expected '" + std::string(text) + "', got '" + Cur().text +
                  "'");
    }
    return Status::Ok();
  }

  // ---- nesting budget -----------------------------------------------------

  /// Bound on the nesting of the AST (and types) under construction, like
  /// json::Parse's: each recursive production and each link of a left-deep
  /// operator or postfix chain counts one level. Neither this parser nor
  /// the optimizer and codegen passes that recurse over its output can then
  /// exhaust the stack, whatever the source.
  static constexpr int kMaxDepth = 256;

  /// Restores the nesting level when a production returns.
  struct DepthScope {
    int& depth;
    int saved = depth;
    ~DepthScope() { depth = saved; }
  };

  /// The error for an operator or postfix chain past the budget: a long
  /// flat chain is not deep nesting in the source, whatever its tree.
  static constexpr std::string_view kTooLong =
      "expression too long: more than 256 chained operators";

  /// Enters one more nesting level (undone by the enclosing DepthScope).
  /// `overflow` is the error once the budget is spent, with `reserve`
  /// levels kept back for what the caller parses next.
  Status Nest(std::string_view overflow = "nesting deeper than 256 levels",
              int reserve = 0) {
    if (++depth_ + reserve > kMaxDepth) return Fail(std::string(overflow));
    return Status::Ok();
  }

  // ---- scopes -------------------------------------------------------------
  void EnterScope() { scopes_.emplace_back(); }
  void LeaveScope() { scopes_.pop_back(); }

  Variable* LookupVar(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) return found->second;
    }
    return nullptr;
  }

  Variable* DeclareLocal(std::string name, TypePtr type) {
    auto var = std::make_unique<Variable>();
    var->name = std::move(name);
    var->type = std::move(type);
    Variable* raw = var.get();
    currentFunction_->locals.push_back(std::move(var));
    scopes_.back()[raw->name] = raw;
    return raw;
  }

  Variable* DeclareGlobal(std::string name, TypePtr type, bool isExtern) {
    auto var = std::make_unique<Variable>();
    var->name = std::move(name);
    var->type = std::move(type);
    var->isGlobal = true;
    var->isExtern = isExtern;
    Variable* raw = var.get();
    unit_.globals.push_back(std::move(var));
    scopes_.front()[raw->name] = raw;
    return raw;
  }

  // ---- types --------------------------------------------------------------

  // Arena-bound shadows of the ast.h composite-type builders: every type
  // built while parsing is owned by the unit's arena, so the (cyclic) type
  // graph cannot leak.
  TypePtr PointerTo(TypePtr base) {
    return cc::PointerTo(unit_.types, base);
  }
  TypePtr ArrayOf(TypePtr element, std::uint32_t length) {
    return cc::ArrayOf(unit_.types, element, length);
  }
  TypePtr FunctionType(TypePtr returnType, std::vector<TypePtr> params) {
    return cc::FunctionType(unit_.types, returnType, std::move(params));
  }

  // ---- declarations -------------------------------------------------------

  bool AtTypeStart() const {
    return AtKeyword("void") || AtKeyword("char") || AtKeyword("int") ||
           AtKeyword("unsigned") || AtKeyword("float") || AtKeyword("double") ||
           AtKeyword("struct") || AtKeyword("const") || AtKeyword("extern") ||
           AtKeyword("static");
  }

  Result<TypePtr> DeclSpec(bool* isExtern) {
    while (ConsumeKeyword("const") || ConsumeKeyword("static")) {
    }
    if (ConsumeKeyword("extern")) {
      if (isExtern != nullptr) *isExtern = true;
      while (ConsumeKeyword("const")) {
      }
    }
    if (ConsumeKeyword("void")) return VoidType();
    if (ConsumeKeyword("char")) return CharType();
    if (ConsumeKeyword("int")) return IntType();
    if (ConsumeKeyword("unsigned")) {
      ConsumeKeyword("int");
      return UIntType();
    }
    if (ConsumeKeyword("float")) return FloatType();
    if (ConsumeKeyword("double")) return DoubleType();
    if (ConsumeKeyword("struct")) return StructRef();
    return Fail("expected a type, got '" + Cur().text + "'");
  }

  Result<TypePtr> StructRef() {
    DepthScope scope{depth_};
    RVSS_RETURN_IF_ERROR(Nest());
    if (!At(TokenKind::kIdentifier)) return Fail("expected struct tag");
    std::string tag = Take().text;
    if (AtPunct("{")) {
      // Definition.
      ++pos_;
      TypePtr type = unit_.types.New();
      type->kind = TypeKind::kStruct;
      type->structName = tag;
      structTags_[tag] = type;  // visible inside (self-referential pointers)
      std::uint32_t offset = 0;
      std::uint32_t maxAlign = 1;
      while (!ConsumePunct("}")) {
        bool isExtern = false;
        RVSS_ASSIGN_OR_RETURN(TypePtr base, DeclSpec(&isExtern));
        while (true) {
          RVSS_ASSIGN_OR_RETURN(auto decl, Declarator(base));
          auto [memberType, memberName] = decl;
          if (memberType->kind == TypeKind::kVoid) {
            return FailSem("struct member cannot be void", Cur().pos);
          }
          offset = (offset + memberType->align - 1) &
                   ~(memberType->align - 1);
          type->members.push_back(StructMember{memberName, memberType, offset});
          offset += memberType->size;
          maxAlign = std::max(maxAlign, memberType->align);
          if (!ConsumePunct(",")) break;
        }
        RVSS_RETURN_IF_ERROR(ExpectPunct(";"));
      }
      type->align = maxAlign;
      type->size = (offset + maxAlign - 1) & ~(maxAlign - 1);
      if (type->size == 0) type->size = maxAlign;
      return type;
    }
    auto it = structTags_.find(tag);
    if (it == structTags_.end()) {
      return FailSem("unknown struct '" + tag + "'", Cur().pos);
    }
    return it->second;
  }

  /// Parses a declarator over `base`: pointers, a (possibly parenthesized)
  /// name, and array/function suffixes. Returns (type, name).
  Result<std::pair<TypePtr, std::string>> Declarator(TypePtr base) {
    DepthScope scope{depth_};
    RVSS_RETURN_IF_ERROR(Nest());
    while (ConsumePunct("*")) {
      RVSS_RETURN_IF_ERROR(Nest());
      base = PointerTo(base);
    }

    if (ConsumePunct("(")) {
      // Parenthesized inner declarator (function pointers). Parse the
      // inner part against a placeholder, then substitute.
      std::size_t inner = pos_;
      int depth = 1;
      while (depth > 0) {
        if (At(TokenKind::kEof)) return Fail("unbalanced declarator");
        if (AtPunct("(")) ++depth;
        if (AtPunct(")")) --depth;
        ++pos_;
      }
      RVSS_ASSIGN_OR_RETURN(TypePtr outer, TypeSuffix(base));
      std::size_t after = pos_;
      pos_ = inner;
      RVSS_ASSIGN_OR_RETURN(auto result, Declarator(outer));
      // pos_ now sits at the ')' matching the '('; skip to the suffix end.
      pos_ = after;
      return result;
    }

    std::string name;
    if (At(TokenKind::kIdentifier)) name = Take().text;
    RVSS_ASSIGN_OR_RETURN(TypePtr type, TypeSuffix(base));
    return std::make_pair(type, name);
  }

  Result<TypePtr> TypeSuffix(TypePtr base) {
    DepthScope scope{depth_};
    RVSS_RETURN_IF_ERROR(Nest());
    if (ConsumePunct("[")) {
      if (!At(TokenKind::kIntLiteral)) return Fail("expected array length");
      const std::int64_t length = Take().intValue;
      if (length <= 0 || length > (1 << 24)) return Fail("bad array length");
      RVSS_RETURN_IF_ERROR(ExpectPunct("]"));
      RVSS_ASSIGN_OR_RETURN(TypePtr element, TypeSuffix(base));
      return ArrayOf(element, static_cast<std::uint32_t>(length));
    }
    if (ConsumePunct("(")) {
      std::vector<TypePtr> params;
      std::vector<std::string> paramNames;
      if (!ConsumePunct(")")) {
        while (true) {
          if (ConsumeKeyword("void") && AtPunct(")")) break;
          bool isExtern = false;
          RVSS_ASSIGN_OR_RETURN(TypePtr paramBase, DeclSpec(&isExtern));
          RVSS_ASSIGN_OR_RETURN(auto decl, Declarator(paramBase));
          TypePtr paramType = decl.first;
          if (paramType->kind == TypeKind::kArray) {
            paramType = PointerTo(paramType->base);  // decay
          }
          params.push_back(paramType);
          paramNames.push_back(decl.second);
          if (!ConsumePunct(",")) break;
        }
        RVSS_RETURN_IF_ERROR(ExpectPunct(")"));
      }
      TypePtr fn = FunctionType(base, std::move(params));
      fn->paramNames = std::move(paramNames);
      return fn;
    }
    return base;
  }

  Status TopLevel() {
    // Bare struct declaration: struct Tag { ... };
    if (AtKeyword("struct") && Peek().kind == TokenKind::kIdentifier &&
        Peek(2).kind == TokenKind::kPunct && Peek(2).text == "{") {
      ++pos_;
      RVSS_ASSIGN_OR_RETURN(TypePtr unused, StructRef());
      (void)unused;
      return ExpectPunct(";");
    }

    bool isExtern = false;
    RVSS_ASSIGN_OR_RETURN(TypePtr base, DeclSpec(&isExtern));
    RVSS_ASSIGN_OR_RETURN(auto decl, Declarator(base));
    auto [type, name] = decl;
    if (name.empty()) return Fail("expected a name in declaration");

    if (type->kind == TypeKind::kFunction) {
      if (ConsumePunct(";")) {
        // Prototype.
        functionTypes_[name] = type;
        return Status::Ok();
      }
      return FunctionDefinition(std::move(name), std::move(type));
    }

    // Global variable(s).
    while (true) {
      Variable* var = DeclareGlobal(name, type, isExtern);
      if (ConsumePunct("=")) {
        RVSS_RETURN_IF_ERROR(GlobalInitializer(var));
      }
      if (!ConsumePunct(",")) break;
      RVSS_ASSIGN_OR_RETURN(auto next, Declarator(base));
      type = next.first;
      name = next.second;
      if (name.empty()) return Fail("expected a name in declaration");
    }
    return ExpectPunct(";");
  }

  Status GlobalInitializer(Variable* var) {
    var->hasInit = true;
    if (At(TokenKind::kStringLiteral)) {
      if (var->type->kind != TypeKind::kArray ||
          var->type->base->kind != TypeKind::kChar) {
        return FailSem("string initializer requires char array", Cur().pos);
      }
      var->stringInit = Take().text;
      return Status::Ok();
    }
    if (ConsumePunct("{")) {
      while (!ConsumePunct("}")) {
        RVSS_ASSIGN_OR_RETURN(double value, ConstantExpression());
        var->init.push_back(value);
        if (!ConsumePunct(",")) {
          RVSS_RETURN_IF_ERROR(ExpectPunct("}"));
          break;
        }
      }
      return Status::Ok();
    }
    RVSS_ASSIGN_OR_RETURN(double value, ConstantExpression());
    var->init.push_back(value);
    return Status::Ok();
  }

  Result<double> ConstantExpression() {
    // Minimal constant evaluation: literals with optional unary minus.
    bool negative = ConsumePunct("-");
    if (At(TokenKind::kIntLiteral) || At(TokenKind::kCharLiteral)) {
      double value = static_cast<double>(Take().intValue);
      return negative ? -value : value;
    }
    if (At(TokenKind::kFloatLiteral)) {
      double value = Take().floatValue;
      return negative ? -value : value;
    }
    return Fail("expected a constant initializer");
  }

  Status FunctionDefinition(std::string name, TypePtr type) {
    auto function = std::make_unique<Function>();
    function->name = std::move(name);
    function->type = type;
    function->pos = Cur().pos;
    functionTypes_[function->name] = type;
    currentFunction_ = function.get();
    currentReturnType_ = type->base;

    EnterScope();
    // Bind parameters (names live in the function type).
    for (std::size_t i = 0; i < type->params.size(); ++i) {
      if (i >= type->paramNames.size() || type->paramNames[i].empty()) {
        return FailSem("parameter " + std::to_string(i + 1) + " of '" +
                           function->name + "' needs a name",
                       function->pos);
      }
      Variable* param = DeclareLocal(type->paramNames[i], type->params[i]);
      function->params.push_back(param);
    }

    RVSS_RETURN_IF_ERROR(ExpectPunct("{"));
    RVSS_ASSIGN_OR_RETURN(NodePtr body, CompoundStatement());
    function->body = std::move(body);
    LeaveScope();

    unit_.functions.push_back(std::move(function));
    currentFunction_ = nullptr;
    return Status::Ok();
  }

  // ---- statements ----------------------------------------------------------

  Result<NodePtr> Statement() {
    DepthScope scope{depth_};
    RVSS_RETURN_IF_ERROR(Nest());
    const SourcePos pos = Cur().pos;
    if (AtPunct("{")) {
      ++pos_;
      EnterScope();
      auto result = CompoundStatement();
      LeaveScope();
      return result;
    }
    if (ConsumeKeyword("if")) {
      RVSS_RETURN_IF_ERROR(ExpectPunct("("));
      NodePtr node = MakeNode(NodeKind::kIf, pos);
      RVSS_ASSIGN_OR_RETURN(node->cond, Expression());
      RVSS_RETURN_IF_ERROR(ExpectPunct(")"));
      RVSS_ASSIGN_OR_RETURN(node->thenBranch, Statement());
      if (ConsumeKeyword("else")) {
        RVSS_ASSIGN_OR_RETURN(node->elseBranch, Statement());
      }
      return node;
    }
    if (ConsumeKeyword("while")) {
      RVSS_RETURN_IF_ERROR(ExpectPunct("("));
      NodePtr node = MakeNode(NodeKind::kWhile, pos);
      RVSS_ASSIGN_OR_RETURN(node->cond, Expression());
      RVSS_RETURN_IF_ERROR(ExpectPunct(")"));
      RVSS_ASSIGN_OR_RETURN(node->thenBranch, Statement());
      return node;
    }
    if (ConsumeKeyword("do")) {
      NodePtr node = MakeNode(NodeKind::kDoWhile, pos);
      RVSS_ASSIGN_OR_RETURN(node->thenBranch, Statement());
      if (!ConsumeKeyword("while")) return Fail("expected 'while' after do");
      RVSS_RETURN_IF_ERROR(ExpectPunct("("));
      RVSS_ASSIGN_OR_RETURN(node->cond, Expression());
      RVSS_RETURN_IF_ERROR(ExpectPunct(")"));
      RVSS_RETURN_IF_ERROR(ExpectPunct(";"));
      return node;
    }
    if (ConsumeKeyword("for")) {
      RVSS_RETURN_IF_ERROR(ExpectPunct("("));
      NodePtr node = MakeNode(NodeKind::kFor, pos);
      EnterScope();
      if (!ConsumePunct(";")) {
        if (AtTypeStart()) {
          RVSS_ASSIGN_OR_RETURN(node->init, Declaration());
        } else {
          RVSS_ASSIGN_OR_RETURN(NodePtr init, Expression());
          NodePtr stmt = MakeNode(NodeKind::kExprStmt, pos);
          stmt->lhs = std::move(init);
          node->init = std::move(stmt);
          RVSS_RETURN_IF_ERROR(ExpectPunct(";"));
        }
      }
      if (!AtPunct(";")) {
        RVSS_ASSIGN_OR_RETURN(node->cond, Expression());
      }
      RVSS_RETURN_IF_ERROR(ExpectPunct(";"));
      if (!AtPunct(")")) {
        RVSS_ASSIGN_OR_RETURN(node->step, Expression());
      }
      RVSS_RETURN_IF_ERROR(ExpectPunct(")"));
      RVSS_ASSIGN_OR_RETURN(node->thenBranch, Statement());
      LeaveScope();
      return node;
    }
    if (ConsumeKeyword("break")) {
      RVSS_RETURN_IF_ERROR(ExpectPunct(";"));
      return MakeNode(NodeKind::kBreak, pos);
    }
    if (ConsumeKeyword("continue")) {
      RVSS_RETURN_IF_ERROR(ExpectPunct(";"));
      return MakeNode(NodeKind::kContinue, pos);
    }
    if (ConsumeKeyword("return")) {
      NodePtr node = MakeNode(NodeKind::kReturn, pos);
      if (!AtPunct(";")) {
        RVSS_ASSIGN_OR_RETURN(node->lhs, Expression());
        if (currentReturnType_->kind == TypeKind::kVoid) {
          return FailSem("returning a value from a void function", pos);
        }
      }
      RVSS_RETURN_IF_ERROR(ExpectPunct(";"));
      return node;
    }
    if (ConsumePunct(";")) {
      return MakeNode(NodeKind::kEmpty, pos);
    }
    if (AtTypeStart()) {
      return Declaration();
    }
    NodePtr node = MakeNode(NodeKind::kExprStmt, pos);
    RVSS_ASSIGN_OR_RETURN(node->lhs, Expression());
    RVSS_RETURN_IF_ERROR(ExpectPunct(";"));
    return node;
  }

  /// Local declaration statement; initializers become assignments.
  Result<NodePtr> Declaration() {
    const SourcePos pos = Cur().pos;
    bool isExtern = false;
    RVSS_ASSIGN_OR_RETURN(TypePtr base, DeclSpec(&isExtern));
    NodePtr node = MakeNode(NodeKind::kDeclStmt, pos);
    while (true) {
      RVSS_ASSIGN_OR_RETURN(auto decl, Declarator(base));
      auto [type, name] = decl;
      if (name.empty()) return Fail("expected a variable name");
      if (type->kind == TypeKind::kVoid) {
        return FailSem("variable cannot be void", pos);
      }
      Variable* var = DeclareLocal(name, type);
      if (ConsumePunct("=")) {
        NodePtr ref = MakeNode(NodeKind::kVarRef, pos);
        ref->var = var;
        ref->type = type;
        RVSS_ASSIGN_OR_RETURN(NodePtr value, Assignment());
        NodePtr assign = MakeNode(NodeKind::kAssign, pos);
        RVSS_ASSIGN_OR_RETURN(assign->rhs,
                              CoerceTo(std::move(value), type, pos));
        assign->lhs = std::move(ref);
        assign->type = type;
        assign->op = "=";
        node->body.push_back(std::move(assign));
      }
      if (!ConsumePunct(",")) break;
    }
    RVSS_RETURN_IF_ERROR(ExpectPunct(";"));
    return node;
  }

  Result<NodePtr> CompoundStatement() {
    NodePtr node = MakeNode(NodeKind::kCompound, Cur().pos);
    while (!ConsumePunct("}")) {
      if (At(TokenKind::kEof)) return Fail("unterminated block");
      RVSS_ASSIGN_OR_RETURN(NodePtr stmt, Statement());
      node->body.push_back(std::move(stmt));
    }
    return node;
  }

  // ---- expressions ---------------------------------------------------------

  /// Inserts an implicit conversion node when types differ.
  Result<NodePtr> CoerceTo(NodePtr node, const TypePtr& target,
                           SourcePos pos) {
    TypePtr from = node->type;
    if (from == nullptr) return FailSem("untyped expression", pos);
    if (SameType(*from, *target)) return node;
    // Array-to-pointer decay.
    if (from->kind == TypeKind::kArray &&
        target->kind == TypeKind::kPointer &&
        SameType(*from->base, *target->base)) {
      return node;  // codegen treats array values as addresses
    }
    // Function to function-pointer decay.
    if (from->kind == TypeKind::kFunction &&
        target->kind == TypeKind::kPointer &&
        SameType(*from, *target->base)) {
      return node;
    }
    if ((from->IsArithmetic() && target->IsArithmetic())) {
      NodePtr cast = MakeNode(NodeKind::kCast, pos);
      cast->lhs = std::move(node);
      cast->type = target;
      return cast;
    }
    // Pointer conversions: allow between pointers and int (explicitly via
    // cast nodes elsewhere); implicit pointer-pointer of same base handled
    // by SameType. Permit void* style interop loosely.
    if (from->IsPointerLike() && target->kind == TypeKind::kPointer) {
      return node;
    }
    if (from->IsInteger() && target->kind == TypeKind::kPointer) {
      return node;  // e.g. p = 0
    }
    return FailSem("cannot convert '" + from->ToText() + "' to '" +
                       target->ToText() + "'",
                   pos);
  }

  Result<NodePtr> Expression() {
    DepthScope scope{depth_};
    RVSS_ASSIGN_OR_RETURN(NodePtr node, Assignment());
    while (AtPunct(",")) {
      RVSS_RETURN_IF_ERROR(Nest());
      SourcePos pos = Take().pos;
      NodePtr comma = MakeNode(NodeKind::kComma, pos);
      comma->lhs = std::move(node);
      RVSS_ASSIGN_OR_RETURN(comma->rhs, Assignment());
      comma->type = comma->rhs->type;
      node = std::move(comma);
    }
    return node;
  }

  Result<NodePtr> Assignment() {
    DepthScope scope{depth_};
    RVSS_RETURN_IF_ERROR(Nest());
    RVSS_ASSIGN_OR_RETURN(NodePtr lhs, Conditional());
    static constexpr std::string_view kAssignOps[] = {
        "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};
    for (std::string_view op : kAssignOps) {
      if (AtPunct(op)) {
        SourcePos pos = Take().pos;
        RVSS_ASSIGN_OR_RETURN(NodePtr rhs, Assignment());
        NodePtr node = MakeNode(NodeKind::kAssign, pos);
        node->op = std::string(op);
        node->type = lhs->type;
        if (op != "=") {
          // a op= b  keeps the raw rhs; codegen reloads a.
          RVSS_ASSIGN_OR_RETURN(
              rhs, CoerceTo(std::move(rhs),
                            lhs->type->IsFloating() ? lhs->type : lhs->type,
                            pos));
        } else {
          RVSS_ASSIGN_OR_RETURN(rhs, CoerceTo(std::move(rhs), lhs->type, pos));
        }
        node->lhs = std::move(lhs);
        node->rhs = std::move(rhs);
        return node;
      }
    }
    return lhs;
  }

  Result<NodePtr> Conditional() {
    RVSS_ASSIGN_OR_RETURN(NodePtr cond, LogicalOr());
    if (!ConsumePunct("?")) return cond;
    DepthScope scope{depth_};
    RVSS_RETURN_IF_ERROR(Nest());
    SourcePos pos = Cur().pos;
    NodePtr node = MakeNode(NodeKind::kCond, pos);
    node->cond = std::move(cond);
    RVSS_ASSIGN_OR_RETURN(node->thenBranch, Expression());
    RVSS_RETURN_IF_ERROR(ExpectPunct(":"));
    RVSS_ASSIGN_OR_RETURN(node->elseBranch, Conditional());
    if (node->thenBranch->type->IsArithmetic() &&
        node->elseBranch->type->IsArithmetic()) {
      node->type = CommonArithmeticType(node->thenBranch->type,
                                        node->elseBranch->type);
      RVSS_ASSIGN_OR_RETURN(
          node->thenBranch,
          CoerceTo(std::move(node->thenBranch), node->type, pos));
      RVSS_ASSIGN_OR_RETURN(
          node->elseBranch,
          CoerceTo(std::move(node->elseBranch), node->type, pos));
    } else {
      node->type = node->thenBranch->type;
    }
    return node;
  }

  template <typename NextFn>
  Result<NodePtr> BinaryChain(NextFn next,
                              std::initializer_list<std::string_view> ops) {
    DepthScope scope{depth_};
    RVSS_ASSIGN_OR_RETURN(NodePtr node, (this->*next)());
    while (true) {
      bool matched = false;
      for (std::string_view op : ops) {
        if (AtPunct(op)) {
          // A plain right operand still opens one level (Unary); keeping
          // it back makes a long chain fail here, named as a chain.
          RVSS_RETURN_IF_ERROR(Nest(kTooLong, 1));
          SourcePos pos = Take().pos;
          RVSS_ASSIGN_OR_RETURN(NodePtr rhs, (this->*next)());
          RVSS_ASSIGN_OR_RETURN(
              node, MakeBinary(std::string(op), std::move(node),
                               std::move(rhs), pos));
          matched = true;
          break;
        }
      }
      if (!matched) return node;
    }
  }

  Result<NodePtr> MakeBinary(std::string op, NodePtr lhs, NodePtr rhs,
                             SourcePos pos) {
    NodePtr node = MakeNode(NodeKind::kBinary, pos);
    node->op = op;

    const bool comparison = op == "==" || op == "!=" || op == "<" ||
                            op == "<=" || op == ">" || op == ">=";
    const bool logical = op == "&&" || op == "||";
    TypePtr lt = lhs->type;
    TypePtr rt = rhs->type;

    if (logical) {
      node->type = IntType();
    } else if (lt->IsPointerLike() || rt->IsPointerLike()) {
      if (comparison) {
        node->type = IntType();
      } else if (op == "+" || op == "-") {
        if (lt->IsPointerLike() && rt->IsInteger()) {
          node->type = lt->kind == TypeKind::kArray ? PointerTo(lt->base) : lt;
        } else if (rt->IsPointerLike() && lt->IsInteger() && op == "+") {
          node->type = rt->kind == TypeKind::kArray ? PointerTo(rt->base) : rt;
        } else if (lt->IsPointerLike() && rt->IsPointerLike() && op == "-") {
          node->type = IntType();  // element difference
        } else {
          return FailSem("invalid pointer arithmetic", pos);
        }
      } else {
        return FailSem("operator '" + op + "' not valid on pointers", pos);
      }
    } else if (lt->IsArithmetic() && rt->IsArithmetic()) {
      if (op == "%" || op == "&" || op == "|" || op == "^" || op == "<<" ||
          op == ">>") {
        if (!lt->IsInteger() || !rt->IsInteger()) {
          return FailSem("operator '" + op + "' needs integer operands", pos);
        }
      }
      TypePtr common = CommonArithmeticType(lt, rt);
      if (op == "<<" || op == ">>") {
        common = lt->kind == TypeKind::kUInt ? UIntType() : IntType();
      }
      RVSS_ASSIGN_OR_RETURN(lhs, CoerceTo(std::move(lhs), common, pos));
      RVSS_ASSIGN_OR_RETURN(rhs, CoerceTo(std::move(rhs), common, pos));
      node->type = comparison ? IntType() : common;
    } else {
      return FailSem("invalid operands to '" + op + "'", pos);
    }

    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  Result<NodePtr> LogicalOr() {
    return BinaryChain(&Parser::LogicalAnd, {"||"});
  }
  Result<NodePtr> LogicalAnd() {
    return BinaryChain(&Parser::BitOr, {"&&"});
  }
  Result<NodePtr> BitOr() { return BinaryChain(&Parser::BitXor, {"|"}); }
  Result<NodePtr> BitXor() { return BinaryChain(&Parser::BitAnd, {"^"}); }
  Result<NodePtr> BitAnd() { return BinaryChain(&Parser::Equality, {"&"}); }
  Result<NodePtr> Equality() {
    return BinaryChain(&Parser::Relational, {"==", "!="});
  }
  Result<NodePtr> Relational() {
    return BinaryChain(&Parser::Shift, {"<=", ">=", "<", ">"});
  }
  Result<NodePtr> Shift() { return BinaryChain(&Parser::Additive, {"<<", ">>"}); }
  Result<NodePtr> Additive() {
    return BinaryChain(&Parser::Multiplicative, {"+", "-"});
  }
  Result<NodePtr> Multiplicative() {
    return BinaryChain(&Parser::Unary, {"*", "/", "%"});
  }

  bool AtCastStart() const {
    if (!AtPunct("(")) return false;
    const Token& next = Peek();
    return next.kind == TokenKind::kKeyword &&
           (next.text == "void" || next.text == "char" || next.text == "int" ||
            next.text == "unsigned" || next.text == "float" ||
            next.text == "double" || next.text == "struct" ||
            next.text == "const");
  }

  Result<NodePtr> Unary() {
    DepthScope scope{depth_};
    RVSS_RETURN_IF_ERROR(Nest());
    const SourcePos pos = Cur().pos;
    if (AtCastStart()) {
      ++pos_;  // '('
      bool isExtern = false;
      RVSS_ASSIGN_OR_RETURN(TypePtr base, DeclSpec(&isExtern));
      // Abstract declarator: pointers only (cast to array is not a thing).
      RVSS_ASSIGN_OR_RETURN(base, AbstractPointers(base));
      RVSS_RETURN_IF_ERROR(ExpectPunct(")"));
      RVSS_ASSIGN_OR_RETURN(NodePtr operand, Unary());
      NodePtr node = MakeNode(NodeKind::kCast, pos);
      node->lhs = std::move(operand);
      node->type = base;
      return node;
    }
    if (ConsumePunct("-") || (AtPunct("+") && (static_cast<void>(++pos_), true))) {
      // unary minus handled; unary plus is a no-op (fall through for '+')
      if (tokens_[pos_ - 1].text == "+") return Unary();
      RVSS_ASSIGN_OR_RETURN(NodePtr operand, Unary());
      NodePtr node = MakeNode(NodeKind::kUnary, pos);
      node->op = "-";
      if (!operand->type->IsArithmetic()) {
        return FailSem("unary '-' needs an arithmetic operand", pos);
      }
      node->type = operand->type->kind == TypeKind::kChar ? IntType()
                                                          : operand->type;
      node->lhs = std::move(operand);
      return node;
    }
    if (ConsumePunct("!")) {
      RVSS_ASSIGN_OR_RETURN(NodePtr operand, Unary());
      NodePtr node = MakeNode(NodeKind::kUnary, pos);
      node->op = "!";
      node->type = IntType();
      node->lhs = std::move(operand);
      return node;
    }
    if (ConsumePunct("~")) {
      RVSS_ASSIGN_OR_RETURN(NodePtr operand, Unary());
      if (!operand->type->IsInteger()) {
        return FailSem("'~' needs an integer operand", pos);
      }
      NodePtr node = MakeNode(NodeKind::kUnary, pos);
      node->op = "~";
      node->type = operand->type;
      node->lhs = std::move(operand);
      return node;
    }
    if (ConsumePunct("*")) {
      RVSS_ASSIGN_OR_RETURN(NodePtr operand, Unary());
      if (!operand->type->IsPointerLike()) {
        return FailSem("dereferencing a non-pointer", pos);
      }
      NodePtr node = MakeNode(NodeKind::kDeref, pos);
      node->type = operand->type->base;
      node->lhs = std::move(operand);
      return node;
    }
    if (ConsumePunct("&")) {
      RVSS_ASSIGN_OR_RETURN(NodePtr operand, Unary());
      NodePtr node = MakeNode(NodeKind::kAddr, pos);
      node->type = PointerTo(operand->type);
      node->lhs = std::move(operand);
      return node;
    }
    if (ConsumePunct("++") || ConsumePunct("--")) {
      const std::string op = tokens_[pos_ - 1].text;
      RVSS_ASSIGN_OR_RETURN(NodePtr operand, Unary());
      // ++x  ->  x += 1
      NodePtr node = MakeNode(NodeKind::kAssign, pos);
      node->op = op == "++" ? "+=" : "-=";
      node->type = operand->type;
      NodePtr one = MakeNode(NodeKind::kIntLiteral, pos);
      one->intValue = 1;
      one->type = IntType();
      node->lhs = std::move(operand);
      node->rhs = std::move(one);
      return node;
    }
    if (ConsumeKeyword("sizeof")) {
      NodePtr node = MakeNode(NodeKind::kIntLiteral, pos);
      node->type = UIntType();
      if (AtCastStart()) {
        ++pos_;
        bool isExtern = false;
        RVSS_ASSIGN_OR_RETURN(TypePtr base, DeclSpec(&isExtern));
        RVSS_ASSIGN_OR_RETURN(base, AbstractPointers(base));
        RVSS_RETURN_IF_ERROR(ExpectPunct(")"));
        node->intValue = base->size;
      } else {
        RVSS_ASSIGN_OR_RETURN(NodePtr operand, Unary());
        node->intValue = operand->type->size;
      }
      return node;
    }
    return Postfix();
  }

  /// The `*`s of a cast's or sizeof's abstract declarator.
  Result<TypePtr> AbstractPointers(TypePtr base) {
    while (ConsumePunct("*")) {
      RVSS_RETURN_IF_ERROR(Nest());
      base = PointerTo(base);
    }
    return base;
  }

  Result<NodePtr> Postfix() {
    DepthScope scope{depth_};
    RVSS_ASSIGN_OR_RETURN(NodePtr node, Primary());
    while (AtPunct("[") || AtPunct("(") || AtPunct(".") || AtPunct("->") ||
           AtPunct("++") || AtPunct("--")) {
      RVSS_RETURN_IF_ERROR(Nest(kTooLong));
      const SourcePos pos = Cur().pos;
      if (ConsumePunct("[")) {
        RVSS_ASSIGN_OR_RETURN(NodePtr index, Expression());
        RVSS_RETURN_IF_ERROR(ExpectPunct("]"));
        if (!node->type->IsPointerLike()) {
          return FailSem("indexing a non-array", pos);
        }
        RVSS_ASSIGN_OR_RETURN(
            NodePtr sum,
            MakeBinary("+", std::move(node), std::move(index), pos));
        NodePtr deref = MakeNode(NodeKind::kDeref, pos);
        deref->type = sum->type->base;
        deref->lhs = std::move(sum);
        node = std::move(deref);
        continue;
      }
      if (ConsumePunct("(")) {
        // Function call: direct (identifier naming a function) or through
        // a function pointer value.
        NodePtr call;
        if (node->kind == NodeKind::kVarRef && node->var == nullptr) {
          call = MakeNode(NodeKind::kCall, pos);
          call->callee = node->memberName;  // stashed function name
          auto typeIt = functionTypes_.find(call->callee);
          if (typeIt == functionTypes_.end()) {
            return FailSem("call to unknown function '" + call->callee + "'",
                           pos);
          }
          call->type = typeIt->second->base;
          call->var = nullptr;
          node->type = typeIt->second;
          RVSS_RETURN_IF_ERROR(
              CallArguments(call.get(), *typeIt->second));
        } else {
          TypePtr fnType = node->type;
          if (fnType->kind == TypeKind::kPointer) fnType = fnType->base;
          if (fnType->kind != TypeKind::kFunction) {
            return FailSem("calling a non-function value", pos);
          }
          call = MakeNode(NodeKind::kIndirectCall, pos);
          call->type = fnType->base;
          RVSS_RETURN_IF_ERROR(CallArguments(call.get(), *fnType));
          call->lhs = std::move(node);
        }
        node = std::move(call);
        continue;
      }
      if (ConsumePunct(".")) {
        RVSS_ASSIGN_OR_RETURN(node, MemberAccess(std::move(node), false, pos));
        continue;
      }
      if (ConsumePunct("->")) {
        RVSS_ASSIGN_OR_RETURN(node, MemberAccess(std::move(node), true, pos));
        continue;
      }
      // "++" / "--"
      const std::string op = Take().text;
      NodePtr post = MakeNode(NodeKind::kPostIncDec, pos);
      post->op = op;
      post->type = node->type;
      post->lhs = std::move(node);
      node = std::move(post);
    }
    return node;
  }

  Status CallArguments(Node* call, const Type& fnType) {
    if (!ConsumePunct(")")) {
      while (true) {
        RVSS_ASSIGN_OR_RETURN(NodePtr arg, Assignment());
        const std::size_t index = call->body.size();
        if (index < fnType.params.size()) {
          RVSS_ASSIGN_OR_RETURN(
              arg, CoerceTo(std::move(arg), fnType.params[index], call->pos));
        }
        call->body.push_back(std::move(arg));
        if (!ConsumePunct(",")) break;
      }
      RVSS_RETURN_IF_ERROR(ExpectPunct(")"));
    }
    if (call->body.size() != fnType.params.size()) {
      return FailSem("wrong number of arguments", call->pos);
    }
    if (call->body.size() > 8) {
      return FailSem("rvcc supports at most 8 arguments", call->pos);
    }
    return Status::Ok();
  }

  Result<NodePtr> MemberAccess(NodePtr base, bool arrow, SourcePos pos) {
    TypePtr structType = base->type;
    if (arrow) {
      if (!structType->IsPointerLike()) {
        return FailSem("'->' on a non-pointer", pos);
      }
      structType = structType->base;
    }
    if (structType->kind != TypeKind::kStruct) {
      return FailSem("member access on non-struct '" + structType->ToText() +
                         "'",
                     pos);
    }
    if (!At(TokenKind::kIdentifier)) return Fail("expected member name");
    const std::string memberName = Take().text;
    const StructMember* member = nullptr;
    for (const StructMember& candidate : structType->members) {
      if (candidate.name == memberName) {
        member = &candidate;
        break;
      }
    }
    if (member == nullptr) {
      return FailSem("no member '" + memberName + "' in " +
                         structType->ToText(),
                     pos);
    }
    NodePtr node = MakeNode(NodeKind::kMember, pos);
    node->memberName = memberName;
    node->memberOffset = member->offset;
    node->type = member->type;
    node->postfix = arrow;
    node->lhs = std::move(base);
    return node;
  }

  Result<NodePtr> Primary() {
    const SourcePos pos = Cur().pos;
    if (ConsumePunct("(")) {
      RVSS_ASSIGN_OR_RETURN(NodePtr node, Expression());
      RVSS_RETURN_IF_ERROR(ExpectPunct(")"));
      return node;
    }
    if (At(TokenKind::kIntLiteral) || At(TokenKind::kCharLiteral)) {
      Token token = Take();
      NodePtr node = MakeNode(NodeKind::kIntLiteral, pos);
      node->intValue = token.intValue;
      node->type = token.isUnsignedLiteral ? UIntType() : IntType();
      return node;
    }
    if (At(TokenKind::kFloatLiteral)) {
      Token token = Take();
      NodePtr node = MakeNode(NodeKind::kFloatLiteral, pos);
      node->floatValue = token.floatValue;
      node->type = token.isFloatLiteral32 ? FloatType() : DoubleType();
      return node;
    }
    if (At(TokenKind::kStringLiteral)) {
      Token token = Take();
      NodePtr node = MakeNode(NodeKind::kStringLiteral, pos);
      node->memberName = token.text;  // payload
      node->type = PointerTo(CharType());
      return node;
    }
    if (At(TokenKind::kIdentifier)) {
      std::string name = Take().text;
      Variable* var = LookupVar(name);
      NodePtr node = MakeNode(NodeKind::kVarRef, pos);
      if (var != nullptr) {
        node->var = var;
        node->type = var->type;
        return node;
      }
      // Not a variable: a function name (direct call or function pointer).
      auto fnIt = functionTypes_.find(name);
      if (fnIt != functionTypes_.end()) {
        node->var = nullptr;
        node->memberName = name;  // stash
        node->type = fnIt->second;
        return node;
      }
      if (AtPunct("(")) {
        // Implicitly-declared function: assume int(...) with the argument
        // count discovered at the call site — rejected for safety.
        return FailSem("call to undeclared function '" + name + "'", pos);
      }
      return FailSem("undeclared identifier '" + name + "'", pos);
    }
    return Fail("unexpected token '" + Cur().text + "'");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< current nesting level (see kMaxDepth)
  TranslationUnit unit_;
  std::vector<std::map<std::string, Variable*>> scopes_;
  std::map<std::string, TypePtr> structTags_;
  std::map<std::string, TypePtr> functionTypes_;
  Function* currentFunction_ = nullptr;
  TypePtr currentReturnType_;
};

}  // namespace

Result<TranslationUnit> ParseTranslationUnit(std::string_view source) {
  RVSS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).Run();
}

}  // namespace rvss::cc
