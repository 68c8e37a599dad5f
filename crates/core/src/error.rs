use nisq_ir::IrError;
use nisq_machine::MachineError;
use nisq_opt::OptError;
use std::error::Error;
use std::fmt;

/// Errors produced while compiling a circuit onto a machine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The circuit does not fit on the machine.
    CircuitTooLarge {
        /// Program qubit count.
        program_qubits: usize,
        /// Hardware qubit count.
        hardware_qubits: usize,
    },
    /// The readout weight ω of the reliability objective is invalid.
    InvalidOmega {
        /// The offending value.
        omega: f64,
    },
    /// The optimization substrate reported a problem.
    Optimization(OptError),
    /// The hardware model reported a problem.
    Machine(MachineError),
    /// The IR layer reported a problem.
    Ir(IrError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::CircuitTooLarge {
                program_qubits,
                hardware_qubits,
            } => write!(
                f,
                "circuit uses {program_qubits} qubits but the machine only has {hardware_qubits}"
            ),
            CompileError::InvalidOmega { omega } => {
                write!(f, "readout weight omega must be in [0, 1], got {omega}")
            }
            CompileError::Optimization(e) => write!(f, "optimization failed: {e}"),
            CompileError::Machine(e) => write!(f, "hardware model error: {e}"),
            CompileError::Ir(e) => write!(f, "circuit error: {e}"),
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Optimization(e) => Some(e),
            CompileError::Machine(e) => Some(e),
            CompileError::Ir(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OptError> for CompileError {
    fn from(e: OptError) -> Self {
        match e {
            OptError::TooManyProgramQubits { program, hardware } => CompileError::CircuitTooLarge {
                program_qubits: program,
                hardware_qubits: hardware,
            },
            OptError::InvalidOmega { omega } => CompileError::InvalidOmega { omega },
            other => CompileError::Optimization(other),
        }
    }
}

impl From<MachineError> for CompileError {
    fn from(e: MachineError) -> Self {
        CompileError::Machine(e)
    }
}

impl From<IrError> for CompileError {
    fn from(e: IrError) -> Self {
        CompileError::Ir(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converts_opt_errors() {
        let e: CompileError = OptError::TooManyProgramQubits {
            program: 20,
            hardware: 16,
        }
        .into();
        assert!(matches!(e, CompileError::CircuitTooLarge { .. }));
        assert!(e.to_string().contains("20"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompileError>();
    }

    #[test]
    fn source_is_preserved_for_wrapped_errors() {
        let e = CompileError::Machine(MachineError::NotAdjacent { a: 0, b: 5 });
        assert!(e.source().is_some());
    }
}
